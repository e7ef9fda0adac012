package store

import (
	"sync/atomic"

	"repro/internal/schema"
)

// This file is the compressed segment layout of the store — a table's
// only data. A table version is covered by a run of immutable sealed
// segments (~64K rows each) whose columns are encoded per segment —
// dictionary codes for low-cardinality strings, 16-bit
// frame-of-reference deltas for ints whose span fits them — plus at
// most one plain-encoded tail for the rows past the last seal
// boundary. Every column carries a zone map (min/max + null
// count) the planner tests bound predicates against to skip whole
// segments.
//
// MVCC composes: a write hands the previous version's sealed segments
// to the next version by pointer (they are immutable), appends its
// rows to the tail's plain columns in place (appendCol), and seals the
// tail as soon as it reaches the segment size — appending rows never
// re-encodes sealed history or the rows already in the tail.

// DefaultSegmentRows is the seal boundary: rows per sealed segment.
const DefaultSegmentRows = 64 * 1024

// SegEncoding discriminates the per-segment column encodings.
type SegEncoding uint8

const (
	// SegPlain stores the typed slice as-is.
	SegPlain SegEncoding = iota
	// SegDict stores low-cardinality strings as codes into a
	// per-segment dictionary of distinct values.
	SegDict
	// SegFOR stores ints whose span is below 2^16 frame-of-reference
	// packed: a base plus 16-bit unsigned deltas.
	SegFOR
)

func (e SegEncoding) String() string {
	switch e {
	case SegPlain:
		return "plain"
	case SegDict:
		return "dict"
	case SegFOR:
		return "for"
	}
	return "?"
}

// ZoneMap summarizes one segment column for predicate skipping: the
// non-NULL value range and the NULL count. Min/Max are NULL both for
// columns with no non-NULL cells and for columns whose range is not
// safely orderable (a float segment containing NaN) — the skip rule
// distinguishes the two through Nulls vs Rows.
type ZoneMap struct {
	Min, Max Value
	Nulls    int
	Rows     int
}

// AllNull reports a segment column with no non-NULL values — any
// comparison predicate is non-TRUE on every row, so bound predicates
// may skip the segment outright.
func (z ZoneMap) AllNull() bool { return z.Nulls == z.Rows }

// SegCol is one column of a segment. Exactly one encoding's slices are
// populated according to Enc; Nulls is the segment-local null bitmap
// (nil when the segment holds no NULLs in this column). NULL cells
// store the zero code/delta/value of their encoding.
type SegCol struct {
	Kind Kind
	Enc  SegEncoding
	Zone ZoneMap
	N    int
	Nuls Bitmap

	// SegPlain
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool

	// SegDict: a dictionary holds at most segDictMaxCard entries, so
	// every code fits 16 bits.
	Codes []uint16
	Dict  []string

	// SegFOR: value = Base + delta.
	Base int64
	D16  []uint16
}

// IsNull reports whether row i (segment-local) is NULL.
func (c *SegCol) IsNull(i int) bool { return c.Nuls.Get(i) }

// NullMask materializes the null mask of rows [lo, hi) as a bool
// slice (mask, reused when capacious enough), or nil when the range
// holds no NULLs.
func (c *SegCol) NullMask(lo, hi int, mask []bool) []bool {
	if !c.Nuls.AnyRange(lo, hi) {
		return nil
	}
	if cap(mask) < hi-lo {
		mask = make([]bool, hi-lo)
	}
	mask = mask[:hi-lo]
	for i := range mask {
		mask[i] = c.Nuls.Get(lo + i)
	}
	return mask
}

// IntAt decodes the int64 cell at segment-local row i (undefined for
// NULL cells, which store encoding zeros).
func (c *SegCol) IntAt(i int) int64 {
	switch c.Enc {
	case SegPlain:
		return c.Ints[i]
	case SegFOR:
		return int64(uint64(c.Base) + uint64(c.D16[i]))
	}
	return 0
}

// StrAt decodes the string cell at segment-local row i.
func (c *SegCol) StrAt(i int) string {
	if c.Enc == SegDict {
		return c.Dict[c.Codes[i]]
	}
	return c.Strs[i]
}

// Value boxes segment-local row i back into a Value.
func (c *SegCol) Value(i int) Value {
	if c.Nuls.Get(i) {
		return Null()
	}
	switch c.Kind {
	case KindInt:
		return Int(c.IntAt(i))
	case KindFloat:
		return Float(c.Floats[i])
	case KindText:
		return Text(c.StrAt(i))
	case KindBool:
		return Bool(c.Bools[i])
	}
	return Null()
}

// DecodeInts materializes rows [lo, hi) of an int column into dst
// (reused when capacious enough).
func (c *SegCol) DecodeInts(lo, hi int, dst []int64) []int64 {
	n := hi - lo
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	switch c.Enc {
	case SegPlain:
		copy(dst, c.Ints[lo:hi])
	case SegFOR:
		base := uint64(c.Base)
		for i, d := range c.D16[lo:hi] {
			dst[i] = int64(base + uint64(d))
		}
	}
	return dst
}

// GatherInts decodes the cells at rows lo+idxs[k] of an int column
// into dst[k] — the read a consumer makes when it wants a handful of
// rows out of an encoded window rather than the window itself. idxs
// may come in any order.
func (c *SegCol) GatherInts(dst []int64, lo int, idxs []int32) {
	dst = dst[:len(idxs)]
	switch c.Enc {
	case SegPlain:
		src := c.Ints[lo:]
		for k, i := range idxs {
			dst[k] = src[i]
		}
	case SegFOR:
		base, src := uint64(c.Base), c.D16[lo:]
		for k, i := range idxs {
			dst[k] = int64(base + uint64(src[i]))
		}
	}
}

// IntsInRange sets dst[i] to whether row lo+i of an int column lies in
// [min, max] (an interval with min > max is empty), inverted when neg,
// for every row of [lo, hi) — evaluated on the encoded form, never
// through a decoded copy. FOR columns rebase the interval into delta
// space once and compare the packed deltas. NULL cells hold encoding
// zeros, so their results are meaningless: callers mask them with the
// null bitmap.
func (c *SegCol) IntsInRange(dst []bool, lo, hi int, min, max int64, neg bool) {
	dst = dst[:hi-lo]
	switch c.Enc {
	case SegPlain:
		maskRange(dst, c.Ints[lo:hi], min, max, neg)
	case SegFOR:
		// value = Base + delta with delta >= 0, so the interval in delta
		// space is [min-Base, max-Base] cut off at zero and clipped to
		// what 16 bits hold; two's-complement subtraction is exact for
		// any ordered int64 pair.
		const top = 1<<16 - 1
		var dlo uint64
		if min > c.Base {
			dlo = uint64(min) - uint64(c.Base)
		}
		if min > max || max < c.Base || dlo > top {
			fillBools(dst, neg)
			return
		}
		dhi := uint64(max) - uint64(c.Base)
		if dhi > top {
			dhi = top
		}
		maskRange(dst, c.D16[lo:hi], uint16(dlo), uint16(dhi), neg)
	}
}

func fillBools(dst []bool, v bool) {
	for i := range dst {
		dst[i] = v
	}
}

func maskRange[T int64 | uint16](dst []bool, xs []T, min, max T, neg bool) {
	for i, x := range xs {
		dst[i] = (x >= min && x <= max) != neg
	}
}

// Bytes is the resident data footprint of the encoded column: slice
// contents plus string headers and bytes, accounted the same way for
// every encoding so plain and compressed layouts compare directly.
func (c *SegCol) Bytes() int {
	b := len(c.Ints)*8 + len(c.Floats)*8 + len(c.Bools) + len(c.Nuls)*8
	for _, s := range c.Strs {
		b += 16 + len(s)
	}
	b += len(c.Codes) * 2
	for _, s := range c.Dict {
		b += 16 + len(s)
	}
	b += len(c.D16) * 2
	return b
}

// Segment is one immutable run of table rows with per-column encodings
// and zone maps. Sealed segments never change and are shared by
// pointer across table versions; the single unsealed tail segment is
// plain-encoded and republished, longer, by each write. A segment is
// plain resident data: its columns are always there to read.
type Segment struct {
	N      int
	Sealed bool

	// Zones holds one zone map per column, copied out of the columns at
	// encode time so the planner's skip test reads no column.
	Zones []ZoneMap

	cols []*SegCol
}

// newSegment wraps freshly encoded columns into a segment.
func newSegment(cols []*SegCol, n int, sealed bool) *Segment {
	s := &Segment{N: n, Sealed: sealed, Zones: make([]ZoneMap, len(cols)), cols: cols}
	for i, c := range cols {
		s.Zones[i] = c.Zone
	}
	return s
}

// Cols returns the segment's encoded columns, in table column order.
// They are immutable; a reader may keep them as long as it likes.
func (s *Segment) Cols() []*SegCol { return s.cols }

// Bytes is the data footprint of the segment's encoded columns.
func (s *Segment) Bytes() int {
	b := 0
	for _, c := range s.cols {
		b += c.Bytes()
	}
	return b
}

// SegSet is the segment layout of one table version: sealed segments
// in row order, then at most one unsealed plain tail. Start[i] is the
// table row id of segment i's first row.
type SegSet struct {
	Segs  []*Segment
	Start []int
	N     int // total rows covered
}

// Locate maps a table row id to (segment index, segment-local offset).
func (s *SegSet) Locate(row int) (int, int) {
	lo, hi := 0, len(s.Segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.Start[mid] <= row {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, row - s.Start[lo]
}

// Bytes is the resident data footprint of the whole layout.
func (s *SegSet) Bytes() int {
	b := 0
	for _, seg := range s.Segs {
		b += seg.Bytes()
	}
	return b
}

// ---- encoders ----

// segDictMaxCard caps a segment's dictionary: a dictionary pays when
// distinct values repeat enough to amortize its entries.
const segDictMaxCard = 1 << 15

// A dictionary code is a uint16 (SegCol.Codes): the largest code,
// segDictMaxCard-1, must fit one.
const _ uint16 = segDictMaxCard - 1

// transposeBlock is how many rows appendCols hands each column at a
// time: a block of rows stays in cache while every column takes its
// cells, where whole-batch passes would read each row from memory once
// per column.
const transposeBlock = 1024

// appendCols returns plain columns prev (nil: empty columns of meta's
// types) extended by rows, or ok false when a cell does not fit its
// column's type. The new headers are copies; see appendCol for what
// they share with prev. Growth is geometric and never past limit, the
// seal boundary, so a full tail is exactly one segment's arrays.
func appendCols(meta *schema.Table, prev []*SegCol, rows []Row, limit int) ([]*SegCol, bool) {
	block := make([]SegCol, len(meta.Columns))
	cols := make([]*SegCol, len(block))
	for ci, mc := range meta.Columns {
		c := &block[ci]
		if prev != nil {
			*c = *prev[ci]
		} else {
			*c = SegCol{Kind: KindOfColType(mc.Type), Enc: SegPlain}
		}
		switch c.Kind {
		case KindInt:
			c.Ints = grow(c.Ints, len(rows), limit)
		case KindFloat:
			c.Floats = grow(c.Floats, len(rows), limit)
		case KindText:
			c.Strs = grow(c.Strs, len(rows), limit)
		case KindBool:
			c.Bools = grow(c.Bools, len(rows), limit)
		}
		cols[ci] = c
	}
	// Blocks after the first start on a multiple of transposeBlock, so
	// only the first can begin inside a published bitmap word.
	n0 := block[0].N
	for lo := 0; lo < len(rows); {
		hi := min(len(rows), lo+transposeBlock-(n0+lo)%transposeBlock)
		for ci, c := range cols {
			if !appendCol(c, rows[lo:hi], ci, limit) {
				return nil, false
			}
		}
		lo = hi
	}
	return cols, true
}

// appendCol extends plain column header c by column ci of rows, and
// reports false when a cell does not fit the column's kind. It appends
// in place: published versions hold shorter headers over the same
// arrays and never look past their length, and the one writer only
// writes past every published length. The one cell a reader can see
// change is the last, partial word of the null bitmap, so a batch that
// must set a bit there copies the bitmap first. The typed slice must
// have room for rows (appendCols reserves it). The zone map carries
// over from c's and takes in the new cells.
func appendCol(c *SegCol, rows []Row, ci, limit int) bool {
	n0, k := c.N, len(rows)
	n := n0 + k
	c.N, c.Zone.Rows = n, n
	words := (n + 63) / 64
	if c.Nuls != nil {
		c.Nuls = extendNulls(c.Nuls, words, limit)
	}
	// The published last word is shared while n0 is not a word
	// boundary; cow records that this batch owns its own copy.
	cow := n0%64 == 0
	setNull := func(i int) {
		switch {
		case c.Nuls == nil:
			c.Nuls = extendNulls(nil, words, limit)
		case !cow && i>>6 == n0>>6:
			c.Nuls = append(make(Bitmap, 0, cap(c.Nuls)), c.Nuls...)
			cow = true
		}
		c.Nuls.Set(i)
		c.Zone.Nulls++
	}

	z := &c.Zone
	switch c.Kind {
	case KindInt:
		seen := !z.Min.IsNull()
		min, max := z.Min.Int64(), z.Max.Int64()
		for i, row := range rows {
			v := row[ci]
			var x int64
			switch v.Kind() {
			case KindNull:
				setNull(n0 + i)
			case KindInt:
				x = v.Int64()
				if !seen {
					min, max, seen = x, x, true
				} else if x < min {
					min = x
				} else if x > max {
					max = x
				}
			default:
				return false
			}
			c.Ints = append(c.Ints, x)
		}
		if seen {
			z.Min, z.Max = Int(min), Int(max)
		}

	case KindFloat:
		// A NaN leaves the zone range unknown (NULL) for good, so the
		// skip rule never drops a segment it cannot reason about; NULL
		// bounds over non-NULL cells mean one was seen.
		hasNaN := z.Min.IsNull() && z.Nulls < n0
		seen := !z.Min.IsNull()
		min, max := z.Min.float(), z.Max.float()
		for i, row := range rows {
			v := row[ci]
			var f float64
			switch v.Kind() {
			case KindNull:
				setNull(n0 + i)
			case KindFloat, KindInt:
				f, _ = v.AsFloat()
				switch {
				case f != f:
					hasNaN = true
				case !seen:
					min, max, seen = f, f, true
				case f < min:
					min = f
				case f > max:
					max = f
				}
			default:
				return false
			}
			c.Floats = append(c.Floats, f)
		}
		if seen && !hasNaN {
			z.Min, z.Max = Float(min), Float(max)
		} else {
			z.Min, z.Max = Null(), Null()
		}

	case KindText:
		seen := !z.Min.IsNull()
		min, max := z.Min.Str(), z.Max.Str()
		for i, row := range rows {
			v := row[ci]
			var s string
			switch v.Kind() {
			case KindNull:
				setNull(n0 + i)
			case KindText:
				s = v.Str()
				if !seen {
					min, max, seen = s, s, true
				} else if s < min {
					min = s
				} else if s > max {
					max = s
				}
			default:
				return false
			}
			c.Strs = append(c.Strs, s)
		}
		if seen {
			z.Min, z.Max = Text(min), Text(max)
		}

	case KindBool:
		sawT, sawF := z.Max.BoolVal(), !z.Min.IsNull() && !z.Min.BoolVal()
		for i, row := range rows {
			v := row[ci]
			var b bool
			switch v.Kind() {
			case KindNull:
				setNull(n0 + i)
			case KindBool:
				b = v.BoolVal()
				sawT, sawF = sawT || b, sawF || !b
			default:
				return false
			}
			c.Bools = append(c.Bools, b)
		}
		if sawT || sawF {
			z.Min, z.Max = Bool(!sawF), Bool(sawT)
		}
	}
	return true
}

// grow returns s with room for k more elements, reallocating when its
// capacity falls short: doubling, but never past limit.
func grow[T any](s []T, k, limit int) []T {
	need := len(s) + k
	if need <= cap(s) {
		return s
	}
	c := 2 * cap(s)
	if c > limit {
		c = limit
	}
	if c < need {
		c = need
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// extendNulls lengthens a null bitmap to words, clearing the words it
// adds: they may hold bits a batch that failed validation set.
func extendNulls(b Bitmap, words, limit int) Bitmap {
	old := len(b)
	b = grow(b, words-old, (limit+63)/64)[:words]
	clear(b[old:])
	return b
}

// encodeSegCol seals a full chunk's plain column p: it picks the
// compressed encoding that pays and keeps p's zone map and null
// bitmap. Arrays it keeps plain are p's own; p must not be appended to
// again.
func encodeSegCol(p *SegCol) *SegCol {
	n := p.N
	c := &SegCol{Kind: p.Kind, Enc: SegPlain, N: n, Zone: p.Zone}
	if p.Nuls != nil {
		w := (n + 63) / 64
		c.Nuls = p.Nuls[:w:w]
	}
	nulls := c.Nuls
	seen := !p.Zone.Min.IsNull()

	switch p.Kind {
	case KindInt:
		// Frame-of-reference when the span fits 16 bits: two's-complement
		// subtraction gives the exact unsigned span for any int64 pair.
		min, max := p.Zone.Min.Int64(), p.Zone.Max.Int64()
		if !seen || uint64(max)-uint64(min) >= 1<<16 {
			c.Ints = p.Ints
			return c
		}
		c.Enc, c.Base = SegFOR, min
		c.D16 = make([]uint16, n)
		for i, v := range p.Ints {
			if !nulls.Get(i) {
				c.D16[i] = uint16(uint64(v) - uint64(min))
			}
		}
		return c

	case KindText:
		strs := p.Strs
		if !seen {
			c.Strs = strs
			return c
		}
		codes := make([]uint16, n)
		dict := make([]string, 0, 16)
		byVal := make(map[string]uint16, 16)
		for i, s := range strs {
			if nulls.Get(i) {
				continue
			}
			code, found := byVal[s]
			if !found {
				if len(dict) >= segDictMaxCard || len(dict) >= (n+1)/2 {
					c.Strs = strs
					return c
				}
				code = uint16(len(dict))
				dict = append(dict, s)
				byVal[s] = code
			}
			codes[i] = code
		}
		c.Enc, c.Codes, c.Dict = SegDict, codes, dict
		return c
	}
	c.Floats, c.Bools = p.Floats, p.Bools
	return c
}

// SegCounters tallies segment scan activity for one execution —
// segments visited vs skipped by zone maps. Shared across a parallel
// aggregate's workers, hence atomic.
type SegCounters struct {
	Scanned atomic.Int64
	Skipped atomic.Int64
}

// PartCounters is a shim with no reader or writer in the engine: the
// benchmark's replay still declares one and passes it to
// exec.RunBoundCountedAtCtx, which ignores it. Both go when that
// replay is next rewritten.
type PartCounters struct {
	Scanned atomic.Int64
	Pruned  atomic.Int64
}
