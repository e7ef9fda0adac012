package store

import (
	"errors"
	"sync/atomic"

	"repro/internal/schema"
)

// This file is the compressed segment layout of the store — the primary
// columnar representation the vectorized executor scans. A table
// version is covered by a run of immutable sealed segments (~64K rows
// each) whose columns are encoded per segment — dictionary codes for
// low-cardinality strings, run-length runs for sorted/clustered ints,
// frame-of-reference deltas for narrow-range ints — plus at most one
// plain-encoded mutable tail for the rows past the last seal boundary.
// Every sealed column carries a zone map (min/max + null count) the
// planner tests bound predicates against to skip whole segments.
//
// MVCC composes: publishRows hands the previous version's sealed
// segments to the next version by pointer (they are immutable) and only
// re-encodes the tail, sealing full chunks as the tail crosses the
// segment size — appending rows never re-compresses sealed history.

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
	// SegRLE stores sorted/clustered ints as (value, end-offset) runs.
	SegRLE
	// SegFOR stores narrow-range ints frame-of-reference packed:
	// a base plus 8/16/32-bit unsigned deltas.
	SegFOR
)

func (e SegEncoding) String() string {
	switch e {
	case SegPlain:
		return "plain"
	case SegDict:
		return "dict"
	case SegRLE:
		return "rle"
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

	// SegDict
	Codes []int32
	Dict  []string

	// SegRLE: value runs with ascending exclusive end offsets.
	RunVals []int64
	RunEnds []int32

	// SegFOR: value = Base + delta (exactly one delta width set).
	Base int64
	D8   []uint8
	D16  []uint16
	D32  []uint32
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
	case SegRLE:
		return c.RunVals[c.runOf(i)]
	case SegFOR:
		switch {
		case c.D8 != nil:
			return int64(uint64(c.Base) + uint64(c.D8[i]))
		case c.D16 != nil:
			return int64(uint64(c.Base) + uint64(c.D16[i]))
		default:
			return int64(uint64(c.Base) + uint64(c.D32[i]))
		}
	}
	return 0
}

// runOf locates the RLE run covering row i by binary search over the
// ascending exclusive run ends.
func (c *SegCol) runOf(i int) int {
	lo, hi := 0, len(c.RunEnds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(c.RunEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
	case SegRLE:
		r := c.runOf(lo)
		for i := lo; i < hi; {
			end := int(c.RunEnds[r])
			if end > hi {
				end = hi
			}
			v := c.RunVals[r]
			for ; i < end; i++ {
				dst[i-lo] = v
			}
			r++
		}
	case SegFOR:
		base := uint64(c.Base)
		switch {
		case c.D8 != nil:
			for i, d := range c.D8[lo:hi] {
				dst[i] = int64(base + uint64(d))
			}
		case c.D16 != nil:
			for i, d := range c.D16[lo:hi] {
				dst[i] = int64(base + uint64(d))
			}
		default:
			for i, d := range c.D32[lo:hi] {
				dst[i] = int64(base + uint64(d))
			}
		}
	}
	return dst
}

// GatherInts decodes the cells at rows lo+idxs[k] of an int column
// into dst[k] — the read a consumer makes when it wants a handful of
// rows out of an encoded window rather than the window itself. idxs
// normally ascend (selection vectors, join match lists), which lets
// the RLE form step from run to run; any order is correct.
func (c *SegCol) GatherInts(dst []int64, lo int, idxs []int32) {
	dst = dst[:len(idxs)]
	switch c.Enc {
	case SegPlain:
		src := c.Ints[lo:]
		for k, i := range idxs {
			dst[k] = src[i]
		}
	case SegRLE:
		r, start, end := -1, 0, 0 // run r covers rows [start, end)
		for k, i := range idxs {
			row := lo + int(i)
			if row < start || row >= end {
				if row >= end && r+1 < len(c.RunEnds) && row < int(c.RunEnds[r+1]) {
					r++
				} else {
					r = c.runOf(row)
				}
				start, end = 0, int(c.RunEnds[r])
				if r > 0 {
					start = int(c.RunEnds[r-1])
				}
			}
			dst[k] = c.RunVals[r]
		}
	case SegFOR:
		switch {
		case c.D8 != nil:
			gatherFOR(dst, c.Base, c.D8[lo:], idxs)
		case c.D16 != nil:
			gatherFOR(dst, c.Base, c.D16[lo:], idxs)
		default:
			gatherFOR(dst, c.Base, c.D32[lo:], idxs)
		}
	}
}

func gatherFOR[T uint8 | uint16 | uint32](dst []int64, base int64, ds []T, idxs []int32) {
	for k, i := range idxs {
		dst[k] = int64(uint64(base) + uint64(ds[i]))
	}
}

// IntsInRange sets dst[i] to whether row lo+i of an int column lies in
// [min, max] (an interval with min > max is empty), inverted when neg,
// for every row of [lo, hi) — evaluated on the encoded form, never
// through a decoded copy. FOR columns rebase the interval into delta
// space once and compare the packed deltas; RLE columns compare once
// per run. NULL cells hold encoding zeros, so their results are
// meaningless: callers mask them with the null bitmap.
func (c *SegCol) IntsInRange(dst []bool, lo, hi int, min, max int64, neg bool) {
	dst = dst[:hi-lo]
	switch c.Enc {
	case SegPlain:
		maskRange(dst, c.Ints[lo:hi], min, max, neg)
	case SegRLE:
		r := c.runOf(lo)
		for i := lo; i < hi; r++ {
			end := int(c.RunEnds[r])
			if end > hi {
				end = hi
			}
			v := c.RunVals[r]
			in := (v >= min && v <= max) != neg
			for ; i < end; i++ {
				dst[i-lo] = in
			}
		}
	case SegFOR:
		// value = Base + delta with delta >= 0, so the interval in delta
		// space is [min-Base, max-Base] cut off at zero; two's-complement
		// subtraction is exact for any ordered int64 pair.
		if min > max || max < c.Base {
			fillBools(dst, neg)
			return
		}
		var dlo uint64
		if min > c.Base {
			dlo = uint64(min) - uint64(c.Base)
		}
		dhi := uint64(max) - uint64(c.Base)
		switch {
		case c.D8 != nil:
			maskFOR(dst, c.D8[lo:hi], dlo, dhi, neg)
		case c.D16 != nil:
			maskFOR(dst, c.D16[lo:hi], dlo, dhi, neg)
		default:
			maskFOR(dst, c.D32[lo:hi], dlo, dhi, neg)
		}
	}
}

// maskFOR is IntsInRange over packed deltas: the delta-space interval
// is clipped to what the delta width can hold, then compared narrow.
func maskFOR[T uint8 | uint16 | uint32](dst []bool, ds []T, dlo, dhi uint64, neg bool) {
	top := uint64(^T(0))
	if dlo > top {
		fillBools(dst, neg)
		return
	}
	if dhi > top {
		dhi = top
	}
	maskRange(dst, ds, T(dlo), T(dhi), neg)
}

func fillBools(dst []bool, v bool) {
	for i := range dst {
		dst[i] = v
	}
}

func maskRange[T int64 | uint8 | uint16 | uint32](dst []bool, xs []T, min, max T, neg bool) {
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
	b += len(c.Codes) * 4
	for _, s := range c.Dict {
		b += 16 + len(s)
	}
	b += len(c.RunVals)*8 + len(c.RunEnds)*4
	b += len(c.D8) + len(c.D16)*2 + len(c.D32)*4
	return b
}

// Segment is one immutable run of table rows with per-column encodings
// and zone maps. Sealed segments never change and are shared by
// pointer across table versions; the single unsealed tail segment is
// rebuilt (plain-encoded) on each publish.
//
// The struct splits into an always-resident identity — row count,
// seal flag and per-column zone maps — and a faultable payload (the
// encoded columns). On a memory-only store the payload never leaves;
// under a spill-enabled store (DB.EnableSpill) sealed segments are
// serialized write-once to disk and the segment cache may drop the
// payload under byte-budget pressure, leaving the zone maps behind so
// the planner's skip predicates keep pruning without I/O. Readers go
// through Cols, which faults an evicted payload back in through the
// cache.
type Segment struct {
	N      int
	Sealed bool

	// Zones holds one zone map per column. It is populated at encode
	// time and never evicted: segment skipping must stay a pure
	// in-memory test whatever the cache does to the payload.
	Zones []ZoneMap

	bytes int                       // payload footprint, fixed at encode time
	ref   atomic.Bool               // CLOCK reference bit (second chance)
	src   atomic.Pointer[segSrc]    // spill identity; nil until adopted
	pay   atomic.Pointer[[]*SegCol] // decoded columns; nil when evicted
}

// segSrc is the spill identity of an adopted segment: the cache that
// owns its on-disk copy and the file id within it. Set once at
// adoption, before the payload can ever be evicted.
type segSrc struct {
	id uint64
	c  *SegCache
}

// newSegment wraps freshly encoded columns into a resident segment.
func newSegment(cols []*SegCol, n int, sealed bool) *Segment {
	s := &Segment{N: n, Sealed: sealed, Zones: make([]ZoneMap, len(cols))}
	for i, c := range cols {
		s.Zones[i] = c.Zone
		s.bytes += c.Bytes()
	}
	s.pay.Store(&cols)
	return s
}

// Cols returns the segment's decoded columns, faulting them in through
// the segment cache when the payload was evicted. done, when non-nil,
// aborts a fault-in wait (the cancellation signal of the serving run);
// a nil done waits indefinitely. The returned columns are immutable
// and stay valid however the cache evicts afterwards — eviction only
// drops the cache's reference, never the data under a reader.
func (s *Segment) Cols(done <-chan struct{}) ([]*SegCol, error) {
	if p := s.pay.Load(); p != nil {
		if sp := s.src.Load(); sp != nil {
			s.ref.Store(true)
			sp.c.hits.Add(1)
		}
		return *p, nil
	}
	sp := s.src.Load()
	if sp == nil {
		return nil, errors.New("store: segment payload missing and no segment cache to fault from")
	}
	return sp.c.fault(s, sp, done)
}

// MustCols is Cols without a cancellation signal, panicking on fault
// failure — for tests, benchmarks and footprint accounting over sets
// that are memory-only or known readable.
func (s *Segment) MustCols() []*SegCol {
	cols, err := s.Cols(nil)
	if err != nil {
		panic(err)
	}
	return cols
}

// Resident returns the decoded columns when resident, nil when
// evicted. It never faults and never counts a cache touch.
func (s *Segment) Resident() []*SegCol {
	if p := s.pay.Load(); p != nil {
		return *p
	}
	return nil
}

// Bytes is the data footprint of the segment's encoded payload,
// whether or not it is currently resident.
func (s *Segment) Bytes() int { return s.bytes }

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

// Encoding thresholds. A dictionary pays when distinct values repeat
// enough to amortize the dictionary entries; RLE pays when runs are
// long; FOR width follows the value range.
const (
	segDictMaxCard = 1 << 15 // dictionary entries per segment
	segRLEMinRun   = 8       // average run length that justifies RLE
)

// buildSegments encodes a frozen row set from scratch: sealed full
// chunks of segRows rows, then a plain unsealed tail for the rest.
func buildSegments(meta *schema.Table, rows []Row, segRows int) *SegSet {
	return composeSegs(meta, rows, nil, 0, segRows)
}

// composeSegs shares the already-sealed prefix and encodes the rest:
// full chunks seal (compress), the remainder becomes the plain tail.
func composeSegs(meta *schema.Table, rows []Row, sealed []*Segment, sealedRows, segRows int) *SegSet {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	segs := append([]*Segment(nil), sealed...)
	pos := sealedRows
	for len(rows)-pos >= segRows {
		segs = append(segs, encodeSegment(meta, rows, pos, pos+segRows, true))
		pos += segRows
	}
	if pos < len(rows) {
		segs = append(segs, encodeSegment(meta, rows, pos, len(rows), false))
	}
	ss := &SegSet{Segs: segs, Start: make([]int, len(segs)), N: len(rows)}
	start := 0
	for i, seg := range segs {
		ss.Start[i] = start
		start += seg.N
	}
	return ss
}

// encodeSegment encodes rows [lo, hi) as one segment. Sealed segments
// pick a compressed encoding per column where it pays; the mutable
// tail stays plain (it is rebuilt on every publish).
func encodeSegment(meta *schema.Table, rows []Row, lo, hi int, sealed bool) *Segment {
	cols := make([]*SegCol, len(meta.Columns))
	for ci, mc := range meta.Columns {
		cols[ci] = encodeSegCol(KindOfColType(mc.Type), rows, ci, lo, hi, sealed)
	}
	return newSegment(cols, hi-lo, sealed)
}

func encodeSegCol(kind Kind, rows []Row, ci, lo, hi int, sealed bool) *SegCol {
	n := hi - lo
	c := &SegCol{Kind: kind, Enc: SegPlain, N: n}
	c.Zone.Rows = n
	var nulls Bitmap
	setNull := func(i int) {
		if nulls == nil {
			nulls = NewBitmap(n)
		}
		nulls.Set(i)
		c.Zone.Nulls++
	}

	switch kind {
	case KindInt:
		vals := make([]int64, n)
		var min, max int64
		runs, seen := 0, false
		for i := 0; i < n; i++ {
			v := rows[lo+i][ci]
			if v.IsNull() {
				setNull(i)
				// A null cell breaks a value run (runs carry nullness).
				runs++
				continue
			}
			x := v.Int64()
			vals[i] = x
			if !seen {
				min, max, seen = x, x, true
				runs++
			} else {
				if x < min {
					min = x
				}
				if x > max {
					max = x
				}
				prevNull := nulls.Get(i - 1)
				if prevNull || vals[i-1] != x {
					runs++
				}
			}
		}
		if seen {
			c.Zone.Min, c.Zone.Max = Int(min), Int(max)
		}
		c.Nuls = nulls
		if !sealed || !seen {
			c.Ints = vals
			return c
		}
		if runs*segRLEMinRun <= n {
			c.Enc = SegRLE
			c.RunVals = make([]int64, 0, runs)
			c.RunEnds = make([]int32, 0, runs)
			for i := 0; i < n; i++ {
				v := vals[i]
				if nulls.Get(i) {
					v = 0
				}
				last := len(c.RunVals) - 1
				if last >= 0 && c.RunVals[last] == v && int(c.RunEnds[last]) == i &&
					nulls.Get(i) == nulls.Get(i-1) {
					c.RunEnds[last] = int32(i + 1)
					continue
				}
				c.RunVals = append(c.RunVals, v)
				c.RunEnds = append(c.RunEnds, int32(i+1))
			}
			return c
		}
		// Frame-of-reference: two's-complement subtraction gives the
		// exact unsigned range for any int64 pair.
		span := uint64(max) - uint64(min)
		switch {
		case span < 1<<8:
			c.Enc, c.Base = SegFOR, min
			c.D8 = make([]uint8, n)
			for i, v := range vals {
				if !nulls.Get(i) {
					c.D8[i] = uint8(uint64(v) - uint64(min))
				}
			}
		case span < 1<<16:
			c.Enc, c.Base = SegFOR, min
			c.D16 = make([]uint16, n)
			for i, v := range vals {
				if !nulls.Get(i) {
					c.D16[i] = uint16(uint64(v) - uint64(min))
				}
			}
		case span < 1<<32:
			c.Enc, c.Base = SegFOR, min
			c.D32 = make([]uint32, n)
			for i, v := range vals {
				if !nulls.Get(i) {
					c.D32[i] = uint32(uint64(v) - uint64(min))
				}
			}
		default:
			c.Ints = vals
		}
		return c

	case KindFloat:
		c.Floats = make([]float64, n)
		var min, max float64
		seen, hasNaN := false, false
		for i := 0; i < n; i++ {
			v := rows[lo+i][ci]
			if v.IsNull() {
				setNull(i)
				continue
			}
			f, _ := v.AsFloat()
			c.Floats[i] = f
			if f != f {
				hasNaN = true
				continue
			}
			if !seen {
				min, max, seen = f, f, true
			} else {
				if f < min {
					min = f
				}
				if f > max {
					max = f
				}
			}
		}
		// NaN is unordered: leave the zone range unknown so the skip
		// rule never drops a segment it cannot reason about.
		if seen && !hasNaN {
			c.Zone.Min, c.Zone.Max = Float(min), Float(max)
		}
		c.Nuls = nulls
		return c

	case KindText:
		strs := make([]string, n)
		var min, max string
		seen := false
		for i := 0; i < n; i++ {
			v := rows[lo+i][ci]
			if v.IsNull() {
				setNull(i)
				continue
			}
			s := v.Str()
			strs[i] = s
			if !seen {
				min, max, seen = s, s, true
			} else {
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
		}
		if seen {
			c.Zone.Min, c.Zone.Max = Text(min), Text(max)
		}
		c.Nuls = nulls
		if !sealed || !seen {
			c.Strs = strs
			return c
		}
		codes := make([]int32, n)
		dict := make([]string, 0, 16)
		byVal := make(map[string]int32, 16)
		ok := true
		for i, s := range strs {
			if nulls.Get(i) {
				continue
			}
			code, found := byVal[s]
			if !found {
				if len(dict) >= segDictMaxCard || len(dict) >= (n+1)/2 {
					ok = false
					break
				}
				code = int32(len(dict))
				dict = append(dict, s)
				byVal[s] = code
			}
			codes[i] = code
		}
		if ok {
			c.Enc, c.Codes, c.Dict = SegDict, codes, dict
		} else {
			c.Strs = strs
		}
		return c

	case KindBool:
		c.Bools = make([]bool, n)
		var sawT, sawF bool
		for i := 0; i < n; i++ {
			v := rows[lo+i][ci]
			if v.IsNull() {
				setNull(i)
				continue
			}
			b := v.BoolVal()
			c.Bools[i] = b
			if b {
				sawT = true
			} else {
				sawF = true
			}
		}
		if sawT || sawF {
			c.Zone.Min, c.Zone.Max = Bool(!sawF), Bool(sawT)
		}
		c.Nuls = nulls
		return c
	}
	c.Nuls = nulls
	return c
}

// SegCounters tallies segment scan activity for one execution —
// segments visited vs skipped by zone maps. Shared across exchange
// workers, hence atomic.
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
