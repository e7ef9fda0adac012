package plan

import (
	"math"
	"math/bits"
)

// xsums holds the exact sum of every group of one FLOAT SUM or AVG
// slot: a fixed-point superaccumulator (Neal, arXiv:1505.05571) per
// group, so the sum is order-free and per-worker partials merge into
// exactly the serial result. Every finite float64 is an integer
// multiple of 2^-1074 below 2^1024, so it is a run of at most 53 bits
// somewhere in a 2,098-bit fixed-point number. That number is kept as
// base-2^32 digits in int64 chunks: chunk k weighs 2^(32k-1074). An add
// puts the value's mantissa, shifted to its place, into three chunks
// and carries nothing: carries propagate only every 2^30 adds and at a
// merge.
// Infinities and NaN never enter the digits — spec records them — and
// the value is rounded once, to nearest-even, when it is read.
//
// The groups of a slot share one chunk window [lo, lo+w) of the 67
// chunks a float64 can reach: a column's values usually span a few
// binary orders, so a group costs a few chunks, not 67. Group g's
// chunks are chunks[g*w : g*w+w], least significant first, and the
// window's top chunk only ever receives carries. A value outside the
// window widens it for every group, which happens at most a few dozen
// times a slot.
type xsums struct {
	lo, w   int
	chunks  []int64
	spare   []int64 // the array cover lays the next window out in
	spec    []uint8
	pending int // adds since every group's carries were last propagated
}

const (
	xsPosInf = 1 << iota
	xsNegInf
	xsNaN

	// xsChunks is the number of chunks a float64 can reach: digits of
	// the largest value end in chunk 65, and one chunk above holds the
	// carries.
	xsChunks = 67
	// xsCarryEvery is how many adds pass between carries. An add
	// changes a digit by less than 2^32, and a chunk sees fewer than
	// 2^31 adds between carries — under 2^30 before added notices, and
	// at most 2^30 reported at once — so it stays inside int64.
	xsCarryEvery = 1 << 30
)

// grow adds a group with an exact sum of zero.
func (x *xsums) grow() {
	x.spec = append(x.spec, 0)
	x.chunks = append(x.chunks, make([]int64, x.w)...)
}

// add folds f into group g's sum. The caller reports its adds to added,
// at most xsCarryEvery at a time.
func (x *xsums) add(g int, f float64) {
	b := math.Float64bits(f)
	exp := int(b>>52) & 0x7FF
	mant := b & (1<<52 - 1)
	switch exp {
	case 0x7FF:
		switch {
		case mant != 0:
			x.spec[g] |= xsNaN
		case b>>63 != 0:
			x.spec[g] |= xsNegInf
		default:
			x.spec[g] |= xsPosInf
		}
		return
	case 0: // zero or subnormal: mant × 2^-1074
		if mant == 0 {
			return
		}
	default:
		mant |= 1 << 52
		exp-- // the mantissa's lowest bit weighs 2^(exp-1074)
	}
	i, sh := exp>>5, uint(exp&31)
	if i < x.lo || i+4 > x.lo+x.w {
		x.cover(i, i+4)
	}
	// The shifted mantissa spans up to 84 bits: three 32-bit digits.
	rest := mant >> (32 - sh)
	d0, d1, d2 := int64(mant<<sh&(1<<32-1)), int64(rest&(1<<32-1)), int64(rest>>32)
	k := g*x.w + i - x.lo
	c := x.chunks[k : k+3 : k+3]
	if b>>63 != 0 {
		c[0], c[1], c[2] = c[0]-d0, c[1]-d1, c[2]-d2
	} else {
		c[0], c[1], c[2] = c[0]+d0, c[1]+d1, c[2]+d2
	}
}

// added records n adds since the last call, propagating every group's
// carries once xsCarryEvery have accumulated.
func (x *xsums) added(n int) {
	if x.pending += n; x.pending >= xsCarryEvery {
		for g := range x.spec {
			x.carry(g)
		}
		x.pending = 0
	}
}

// cover widens the window to take in chunks [lo, hi), re-laying every
// group's chunks out over it. An empty window (no finite nonzero value
// yet) becomes [lo, hi). The new layout goes into the spare array and
// the old one becomes the spare, so a table in a pooled scratch
// (groupTable) widens into arrays an earlier run grew.
func (x *xsums) cover(lo, hi int) {
	if x.w > 0 {
		if lo >= x.lo && hi <= x.lo+x.w {
			return
		}
		lo, hi = min(lo, x.lo), max(hi, x.lo+x.w)
	}
	w := hi - lo
	chunks := resize(x.spare, len(x.spec)*w)
	clear(chunks)
	if x.w > 0 {
		for g := range x.spec {
			copy(chunks[g*w+x.lo-lo:], x.chunks[g*x.w:(g+1)*x.w])
		}
	}
	x.lo, x.w, x.chunks, x.spare = lo, w, chunks, x.chunks
}

// carry propagates group g's carries: every chunk but the top one ends
// as a digit in [0, 2^32), and the top one holds the sign.
func (x *xsums) carry(g int) { carryChunks(x.chunks[g*x.w : (g+1)*x.w]) }

func carryChunks(c []int64) {
	for k := 0; k < len(c)-1; k++ {
		carry := c[k] >> 32
		c[k] -= carry << 32
		c[k+1] += carry
	}
}

// merge adds group sg of src, the partial of a later stretch of the
// same input, into group g.
func (x *xsums) merge(g int, src *xsums, sg int) {
	x.spec[g] |= src.spec[sg]
	if src.w == 0 {
		return
	}
	x.cover(src.lo, src.lo+src.w)
	src.carry(sg)
	dst := x.chunks[g*x.w+src.lo-x.lo:]
	for k, v := range src.chunks[sg*src.w : (sg+1)*src.w] {
		dst[k] += v
	}
	x.carry(g)
}

// value returns group g's sum rounded once to the nearest float64, ties
// to even; an exact zero is +0.0. NaN, or +Inf and -Inf both, sum to
// NaN; otherwise an infinity wins.
func (x *xsums) value(g int) float64 {
	switch s := x.spec[g]; {
	case s&xsNaN != 0 || s&(xsPosInf|xsNegInf) == xsPosInf|xsNegInf:
		return math.NaN()
	case s&xsPosInf != 0:
		return math.Inf(1)
	case s&xsNegInf != 0:
		return math.Inf(-1)
	}
	// One chunk above the window takes the last carry, so every chunk
	// of the window becomes a digit and the sign is the top chunk's.
	var buf [xsChunks + 1]int64
	d := buf[:x.w+1]
	copy(d, x.chunks[g*x.w:(g+1)*x.w])
	carryChunks(d)
	neg := d[x.w] < 0
	if neg {
		for k := range d {
			d[k] = -d[k]
		}
		carryChunks(d)
	}
	t := len(d) - 1
	for t >= 0 && d[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	digit := func(k int) uint64 {
		if k < 0 {
			return 0
		}
		return uint64(d[k])
	}
	// The top 64 significant bits, msb set, and whether any bit below
	// them is set: the value is m × 2^e, plus something under 2^e when
	// sticky.
	hi, next := digit(t)<<32|digit(t-1), digit(t-2)
	lz := uint(bits.LeadingZeros64(hi))
	m := hi<<lz | next>>(32-lz)
	sticky := next&(1<<(32-lz)-1) != 0
	for k := t - 3; k >= 0 && !sticky; k-- {
		sticky = d[k] != 0
	}
	e := 32*(t-1+x.lo) - int(lz) - 1074
	// Keep 53 bits, or fewer where the result is subnormal: no bit
	// below 2^-1074 survives.
	shift := uint(max(11, -1074-e))
	q, rem, half := m>>shift, m&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && (sticky || q&1 == 1) {
		q++
	}
	f := math.Ldexp(float64(q), e+int(shift))
	if neg {
		return -f
	}
	return f
}
