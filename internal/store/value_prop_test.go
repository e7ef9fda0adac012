package store

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
)

// genValues builds a deterministic mixed-kind value population:
// NULLs, integers and floats (within ±2^53, where int/float numeric
// equality is exact), texts and bools, including adversarial numeric
// pairs (equal int/float, -0.0, boundary values) and the infinities.
func genValues() []Value {
	rng := rand.New(rand.NewSource(42))
	vals := []Value{
		Null(),
		Int(0), Float(0), Float(math.Copysign(0, -1)), // -0.0 folds onto 0
		Int(1), Float(1), Int(-1), Float(-1),
		Int(7), Float(7.0), Float(7.5), Float(-7.5),
		Int(1 << 52), Float(1 << 52),
		Int(-(1 << 52)), Float(-(1 << 52)),
		Int(1 << 53), Float(1 << 53), Int(1<<53 - 1), Float(1<<53 - 1),
		Int(-(1 << 53)), Float(-(1 << 53)), Int(-(1<<53 - 1)), Float(-(1<<53 - 1)),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Text(""), Text("a"), Text("ab"), Text("b"), Text("Ab"),
		Bool(true), Bool(false),
	}
	for i := 0; i < 40; i++ {
		switch rng.Intn(4) {
		case 0:
			vals = append(vals, Int(rng.Int63n(1<<53)-(1<<52)))
		case 1:
			vals = append(vals, Float((rng.Float64()-0.5)*1e6))
		case 2:
			vals = append(vals, Text(fmt.Sprintf("s%d", rng.Intn(20))))
		default:
			vals = append(vals, Bool(rng.Intn(2) == 0))
		}
	}
	return vals
}

// TestCompareTotalOrder: Compare must be a total order — reflexive,
// antisymmetric, transitive — over mixed kinds.
func TestCompareTotalOrder(t *testing.T) {
	vals := genValues()
	for _, a := range vals {
		if Compare(a, a) != 0 {
			t.Errorf("Compare(%v, %v) != 0", a, a)
		}
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v, %v) not antisymmetric", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("Compare not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// TestCompareConsistentWithKey: two values compare equal exactly when
// their canonical keys are equal (within the ±2^53 range where
// int/float numeric identity is exact) — the property the typed hash
// keys of the vectorized executor rely on.
func TestCompareConsistentWithKey(t *testing.T) {
	vals := genValues()
	for _, a := range vals {
		for _, b := range vals {
			cmpEq := Compare(a, b) == 0
			keyEq := a.Key() == b.Key()
			if cmpEq != keyEq {
				t.Errorf("Compare(%v, %v)==0 is %v but Key equality is %v (keys %q, %q)",
					a, b, cmpEq, keyEq, a.Key(), b.Key())
			}
		}
	}
}

// TestKeyIntFloatEquality pins the numeric key canon: equal int/float
// numerics share a key, int keys format exactly (no float round-trip),
// and -0.0 folds onto 0.0.
func TestKeyIntFloatEquality(t *testing.T) {
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{Int(1), Float(1.0), true},
		{Int(0), Float(math.Copysign(0, -1)), true},
		{Int(7), Float(7.5), false},
		{Int(1 << 52), Float(1 << 52), true},
		{Int(123456789), Int(123456789), true},
		{Float(0.5), Float(0.5), true},
		{Int(1), Text("1"), false},
		{Bool(true), Int(1), false},
	}
	for _, c := range cases {
		if got := c.a.Key() == c.b.Key(); got != c.equal {
			t.Errorf("Key(%v) == Key(%v): got %v want %v (%q vs %q)",
				c.a, c.b, got, c.equal, c.a.Key(), c.b.Key())
		}
	}
	// Large integers format exactly: adjacent ints must never collide
	// (the pre-fix float64 round-trip collapsed them).
	big := int64(1<<60 + 1)
	if Int(big).Key() == Int(big+1).Key() {
		t.Errorf("adjacent large int keys collide: %q", Int(big).Key())
	}
}

// TestAppendKeyMatchesKey: the allocation-free AppendKey form must
// produce exactly the Key bytes.
func TestAppendKeyMatchesKey(t *testing.T) {
	var buf []byte
	for _, v := range genValues() {
		buf = v.AppendKey(buf[:0])
		if string(buf) != v.Key() {
			t.Errorf("AppendKey(%v) = %q, Key = %q", v, buf, v.Key())
		}
	}
}

// TestValueSize pins the cell layout: kind, one shared payload word and
// the string. A field added beside them grows every resident row and
// every cached answer, and ValueSize is what core's answer cache
// budgets a cell at.
func TestValueSize(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("layout is pinned for 64-bit platforms")
	}
	if got := reflect.TypeOf(Value{}).Size(); got != ValueSize || ValueSize != 32 {
		t.Errorf("sizeof(Value) = %d, ValueSize = %d, want both 32", got, ValueSize)
	}
}

// TestValueAccessorsRoundTrip: int, float and bool share one payload
// word, so the contract callers lean on when they read a cell by its
// column's kind rather than its own (the segment codec, serve's
// encoder) is checked for every constructor: Kind is
// right, the own-kind accessor returns the input bit for bit, and every
// other accessor returns its zero.
func TestValueAccessorsRoundTrip(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	ints := []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53),
		int64(math.Float64bits(1.5)), int64(math.Float64bits(math.Inf(-1)))}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1),
		math.NaN(), nanPayload, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1), math.MaxFloat64, 1 << 53, 1e21}
	texts := []string{"", "a", "0", "true", strings.Repeat("long text ", 100)}

	type want struct {
		kind Kind
		i    int64
		f    float64 // AsFloat's value
		num  bool    // AsFloat's ok
		s    string
		b    bool
	}
	check := func(v Value, w want) {
		t.Helper()
		if v.Kind() != w.kind || v.IsNull() != (w.kind == KindNull) ||
			v.IsNumeric() != (w.kind == KindInt || w.kind == KindFloat) {
			t.Errorf("%#v: Kind %s IsNull %v IsNumeric %v, want kind %s", v, v.Kind(), v.IsNull(), v.IsNumeric(), w.kind)
		}
		if got := v.Int64(); got != w.i {
			t.Errorf("%s %v: Int64() = %d, want %d", w.kind, v, got, w.i)
		}
		f, ok := v.AsFloat()
		if ok != w.num || math.Float64bits(f) != math.Float64bits(w.f) {
			t.Errorf("%s %v: AsFloat() = %x %v, want %x %v", w.kind, v,
				math.Float64bits(f), ok, math.Float64bits(w.f), w.num)
		}
		if got := v.Str(); got != w.s {
			t.Errorf("%s %v: Str() = %q, want %q", w.kind, v, got, w.s)
		}
		if got := v.BoolVal(); got != w.b {
			t.Errorf("%s %v: BoolVal() = %v, want %v", w.kind, v, got, w.b)
		}
	}

	check(Null(), want{kind: KindNull})
	check(Value{}, want{kind: KindNull})
	for _, i := range ints {
		check(Int(i), want{kind: KindInt, i: i, f: float64(i), num: true})
		// INT widens into a FLOAT column by value, not by payload bits.
		c, err := coerce(Int(i), schema.Float)
		if err != nil {
			t.Fatal(err)
		}
		check(c, want{kind: KindFloat, f: float64(i), num: true})
	}
	for _, f := range floats {
		check(Float(f), want{kind: KindFloat, f: f, num: true})
	}
	for _, s := range texts {
		check(Text(s), want{kind: KindText, s: s})
	}
	check(Bool(true), want{kind: KindBool, b: true})
	check(Bool(false), want{kind: KindBool})
}

// TestValueRenderingPinned: String, Key and Compare on the cells where
// a shared payload could show — signed zero, NaN payloads, the int64
// extremes, the non-finite floats — spelled out, so a change of layout
// cannot change a rendered answer, a group key or a sort.
func TestValueRenderingPinned(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	nan := Float(math.Float64frombits(0x7ff8_0000_dead_beef))
	for _, c := range []struct {
		v        Value
		str, key string
	}{
		{Null(), "NULL", "\x00N"},
		{Int(math.MinInt64), "-9223372036854775808", "\x01-9223372036854775808"},
		{Int(math.MaxInt64), "9223372036854775807", "\x019223372036854775807"},
		{Float(7), "7.0", "\x017"},
		{Float(7.5), "7.5", "\x017.5"},
		{Float(1e21), "1000000000000000000000.0", "\x011e+21"},
		{negZero, "-0.0", "\x010"},
		{nan, "NaN", "\x01NaN"},
		{Float(math.NaN()), "NaN", "\x01NaN"},
		{Float(math.Inf(1)), "+Inf", "\x01+Inf"},
		{Float(math.Inf(-1)), "-Inf", "\x01-Inf"},
		{Text(""), "", "\x02"},
		{Bool(true), "true", "\x03t"},
		{Bool(false), "false", "\x03f"},
	} {
		if got := c.v.String(); got != c.str {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.str)
		}
		if got := c.v.Key(); got != c.key {
			t.Errorf("%#v.Key() = %q, want %q", c.v, got, c.key)
		}
	}
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{negZero, Float(0), 0},
		{negZero, Int(0), 0},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1}, // equal as floats
		{Int(-1), Int(1), -1},                           // not as unsigned payloads
		{Float(-1), Float(1), -1},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
		{nan, Float(1), 0}, // NaN is unordered: neither < nor >
		{nan, nan, 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Int(1), Bool(true), -1}, // by kind rank, whatever the payloads
		{Text("1"), Int(1), 1},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}
