package plan

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// xsumEdges are the values where a float64 accumulator goes wrong or a
// fixed-point one could: cancellation at the top of the range, 2^53 ± 1
// where consecutive integers stop being representable, the int64
// extremes, subnormals and the smallest normal, signed zeros, and the
// values that never enter the digits.
var xsumEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023,
	1e-300, 3e-310, math.Inf(1), math.Inf(-1), math.NaN(),
}

// bigSum is the oracle: the exact sum in math/big, infinities and NaN
// tracked apart, rounded once by big.Float.Float64.
func bigSum(vals []float64) float64 {
	sum := new(big.Float).SetPrec(2200)
	pos, neg, nan := false, false, false
	for _, f := range vals {
		switch {
		case math.IsNaN(f):
			nan = true
		case math.IsInf(f, 1):
			pos = true
		case math.IsInf(f, -1):
			neg = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(f))
		}
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := sum.Float64()
	return f + 0 // an exact zero is +0.0
}

// TestExactSumProperty: a float sum equals the exact sum in math/big
// rounded once — over cancellation, ±Inf, NaN, −0.0, subnormals,
// 1e308-scale cancellation, 2^53 ± 1 and the int64 extremes — and any
// split of the values into partials, merged in any order, equals the
// serial sum bit for bit.
func TestExactSumProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	draw := func(scale int) float64 {
		switch r.Intn(6) {
		case 0:
			return xsumEdges[r.Intn(len(xsumEdges))]
		case 1:
			// A value and, later, its negation cancel exactly.
			return math.Ldexp(r.Float64(), r.Intn(2*scale+1)-scale)
		case 2:
			return math.Float64frombits(r.Uint64()) // any bit pattern
		case 3:
			return float64(r.Int63n(1<<54) - 1<<53)
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(60)
		scale := []int{4, 60, 1100}[trial%3]
		vals := make([]float64, 0, n)
		for len(vals) < n {
			f := draw(scale)
			vals = append(vals, f)
			if r.Intn(4) == 0 {
				vals = append(vals, -f)
			}
		}
		if trial%5 == 0 {
			// Leave the specials out, so the digits decide.
			vals = vals[:0:0]
			for len(vals) < n {
				if f := draw(scale); !math.IsInf(f, 0) && !math.IsNaN(f) {
					vals = append(vals, f)
				}
			}
		}
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		want := bigSum(vals)

		var serial xsums
		serial.grow()
		for _, f := range vals {
			serial.add(0, f)
		}
		if got := serial.value(0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: serial sum %v (%#x), want %v (%#x)\nvalues %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), vals)
		}

		// Cut into contiguous partials, some empty, each in group 1 of its
		// own accumulator, and merge them into group 0 of a fresh one in a
		// random order.
		var parts []*xsums
		for lo := 0; lo < len(vals); {
			hi := lo + r.Intn(len(vals)-lo+1)
			p := &xsums{}
			p.grow()
			p.grow()
			for _, f := range vals[lo:hi] {
				p.add(1, f)
			}
			parts = append(parts, p)
			lo = hi
		}
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		var merged xsums
		merged.grow()
		for _, p := range parts {
			merged.merge(0, p, 1)
		}
		if got := merged.value(0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: %d partials merged to %v (%#x), want %v (%#x)\nvalues %v",
				trial, len(parts), got, math.Float64bits(got), want, math.Float64bits(want), vals)
		}
	}
}

// TestExactSumCarries: groups whose chunks absorb adds right up to the
// point where carries must propagate — one summing values near the top
// of the range, of both signs, the other values whose magnitudes widen
// its window again and again — stay exact through several rounds of
// carries.
func TestExactSumCarries(t *testing.T) {
	var x xsums
	x.grow()
	x.grow()
	want := [2]*big.Float{new(big.Float).SetPrec(2200), new(big.Float).SetPrec(2200)}
	const n = 3*xsCarryEvery>>20 + 7
	for i := 0; i < n; i++ {
		f := 0x1.fffffffffffffp+999
		if i%3 == 2 {
			f = -f / 2
		}
		x.add(0, f)
		want[0].Add(want[0], new(big.Float).SetFloat64(f))
		f = math.Ldexp(1+float64(i), i%2000-1000)
		x.add(1, f)
		want[1].Add(want[1], new(big.Float).SetFloat64(f))
		// Count each add as 2^19 of them, so that carries propagate
		// every 1,024 iterations.
		x.added(2 << 19)
	}
	for g, w := range want {
		if w, _ := w.Float64(); x.value(g) != w {
			t.Errorf("group %d: sum %v, want %v", g, x.value(g), w)
		}
	}
}
