// Package store is the in-memory relational storage engine underneath
// the natural language interface: typed values, tables in a columnar
// segment layout, and a database bound to a schema. The SQL executor
// (internal/exec) evaluates generated queries against it.
//
// The store is multi-version (see snapshot.go): each table's contents
// live in immutable versions, writers build the next version
// copy-on-write and publish it atomically, and readers pin a Snapshot
// that is frozen for as long as they hold it. Concurrent writers to
// one table serialize on its writer lock; readers never block and are
// never exposed to a partially-applied write.
package store

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates Value variants.
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	}
	return "?"
}

// Value is a single typed cell. The zero Value is NULL.
//
// A cell is four words: the kind, one payload word that holds
// whichever scalar the kind names — the int64 itself,
// math.Float64bits of the float64, 0 or 1 for the bool — and the text.
// At most one scalar is ever live, so they share the word; because
// they share it, every accessor checks the kind before it reads, which
// is what keeps "0 unless KindInt" true of a float cell.
type Value struct {
	kind Kind
	bits uint64
	s    string
}

// ValueSize is the size of a Value in bytes on a 64-bit platform —
// what one cell of a resident row or a cached answer costs before its
// text. TestValueSize pins it to the struct.
const ValueSize = 32

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int makes an integer value.
func Int(i int64) Value { return Value{kind: KindInt, bits: uint64(i)} }

// Float makes a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(f)} }

// Text makes a string value.
func Text(s string) Value { return Value{kind: KindText, s: s} }

// Bool makes a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, bits: 1}
	}
	return Value{kind: KindBool}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Int64 returns the integer content (0 unless KindInt).
func (v Value) Int64() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// float is the float64 content; the caller has checked KindFloat.
func (v Value) float() float64 { return math.Float64frombits(v.bits) }

// Str returns the text content ("" unless KindText).
func (v Value) Str() string { return v.s }

// BoolVal returns the boolean content (false unless KindBool).
func (v Value) BoolVal() bool { return v.kind == KindBool && v.bits != 0 }

// AsFloat returns the numeric content with INT coerced to FLOAT. The
// second result is false for non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.bits)), true
	case KindFloat:
		return v.float(), true
	}
	return 0, false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.bits), 10)
	case KindFloat:
		f := v.float()
		s := strconv.FormatFloat(f, 'f', -1, 64)
		// An integral float says it is one ("7.0"); NaN and ±Inf have
		// no digits to add to and stay as ParseFloat reads them.
		if !strings.ContainsAny(s, ".eE") && !math.IsNaN(f) && !math.IsInf(f, 0) {
			s += ".0"
		}
		return s
	case KindText:
		return v.s
	case KindBool:
		if v.bits != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Key returns a canonical map key for hashing/grouping. Numeric values
// that are equal (1 and 1.0) share a key: integers format via
// FormatInt (exact, no float round-trip), and a float that holds an
// integral value in int64 range formats the same way — which also
// folds -0.0 onto 0.0, keeping Key equality consistent with Compare.
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the canonical key bytes of v to buf and returns
// the extended slice — the allocation-free form of Key for composite
// key builders with a reusable scratch buffer.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, '\x00', 'N')
	case KindInt:
		return strconv.AppendInt(append(buf, '\x01'), int64(v.bits), 10)
	case KindFloat:
		buf = append(buf, '\x01')
		f := v.float()
		// An integral float in int64 range converts exactly; format it
		// like the equal integer so 1 and 1.0 share a key.
		if f == float64(int64(f)) {
			return strconv.AppendInt(buf, int64(f), 10)
		}
		return strconv.AppendFloat(buf, f, 'g', -1, 64)
	case KindText:
		return append(append(buf, '\x02'), v.s...)
	case KindBool:
		if v.bits != 0 {
			return append(buf, '\x03', 't')
		}
		return append(buf, '\x03', 'f')
	}
	return buf
}

// Compare orders two values: NULL first, then numerics (cross-kind),
// then text (bytewise), then bool (false < true). Values of
// incomparable kinds order by kind, which keeps sorting total.
func Compare(a, b Value) int {
	an, bn := a.IsNumeric(), b.IsNumeric()
	if an && bn {
		// Same-kind integers compare exactly, with no float round-trip
		// (which collapses distinct values beyond 2^53) — this keeps
		// Compare consistent with Key equality for integers.
		if a.kind == KindInt && b.kind == KindInt {
			ai, bi := int64(a.bits), int64(b.bits)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.kind != b.kind {
		ka, kb := kindRank(a.kind), kindRank(b.kind)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindText:
		return strings.Compare(a.s, b.s)
	case KindBool:
		// The payload is 0 or 1, so false < true is the word order.
		switch {
		case a.bits < b.bits:
			return -1
		case a.bits > b.bits:
			return 1
		}
		return 0
	}
	return 0
}

func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	case KindText:
		return 2
	case KindBool:
		return 3
	}
	return 4
}

// Equal reports SQL equality of two non-NULL values; comparisons
// involving NULL are false (three-valued logic collapsed to false,
// which is all the executor needs).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// ParseLiteral converts a source literal into a Value: "null", numbers,
// booleans, anything else is text.
func ParseLiteral(s string) Value {
	switch strings.ToLower(s) {
	case "null":
		return Null()
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return Text(s)
}

// Row is one tuple.
type Row []Value

// Clone deep-copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// FormatRows renders rows for debugging output.
func FormatRows(rows []Row) string {
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprint(&b, r.String())
	}
	return b.String()
}
