package plan

import (
	"math"
	"slices"

	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/strutil"
)

// This file is the expression half of the vectorized executor: typed
// column vectors, fixed-size batches with selection vectors, the
// compiler from sql.Expr to vector programs (vexpr), and the typed
// 64-bit hashing used for join, GROUP BY and DISTINCT keys. The
// operators that consume these live in vecexec.go.
//
// A vexpr compiles only when its semantics can be reproduced exactly
// batch-at-a-time: comparison/boolean/arithmetic expressions, BETWEEN,
// IN over literal lists, LIKE against a literal pattern, IS NULL.
// Anything else (subqueries, correlation, cross-kind comparisons,
// aggregate calls outside the Aggregate operator) declines, and the
// node falls back to the row-at-a-time iterator.

// maxBatch is the number of rows a scan packs into one batch: large
// enough to amortize per-batch overhead, small enough to keep a
// batch's working set in cache.
const maxBatch = 1024

// vcol is one column of a batch: a typed vector plus an optional null
// mask. Exactly one data slice is populated according to kind; a
// KindNull column is all-NULL and carries no data slice.
//
// A text column may instead travel in code space: dict non-nil and
// codes holding per-row indexes into it (strs then nil) — the form
// segment scans emit for dictionary-encoded columns. Kernels with a
// per-distinct-value fast path (comparison against a constant, IN,
// LIKE, hashing) compute one result per dictionary entry and gather it
// through the codes; everything else materializes strings lazily via
// str. Selection-preserving operators (gatherCol) keep codes intact,
// so strings for filtered-out rows are never built at all.
//
// An int column may likewise travel encoded: seg non-nil (ints then
// nil), the batch's rows being rows [off, off+n) of that immutable
// FOR- or RLE-encoded segment column. Tests against constants run on
// the encoded form (vnumrange), point readers go through intAt or
// gatherCol, and anything that needs the vector decodes it through
// vbatch.col. A column only a pushed-down predicate reads is therefore
// never decoded at all. Scans are the only producers of the form and
// it never crosses the projection boundary.
type vcol struct {
	kind    store.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool // nil when the column has no NULLs
	codes   []int32
	dict    []string
	seg     *store.SegCol
	off     int
	isConst bool // every row holds the same value (a broadcast constant)
}

func (c *vcol) null(i int) bool { return c.nulls != nil && c.nulls[i] }

// str returns the string at row i, decoding through the dictionary in
// code space.
func (c *vcol) str(i int) string {
	if c.dict != nil {
		return c.dict[c.codes[i]]
	}
	return c.strs[i]
}

// intAt returns the int at row i, decoding through the segment
// encoding while the column travels encoded.
func (c *vcol) intAt(i int) int64 {
	if c.seg != nil {
		return c.seg.IntAt(c.off + i)
	}
	return c.ints[i]
}

// floatAt returns the numeric value at row i widened to float64.
func (c *vcol) floatAt(i int) float64 {
	if c.kind == store.KindInt {
		return float64(c.intAt(i))
	}
	return c.floats[i]
}

// value boxes row i back into a store.Value.
func (c *vcol) value(i int) store.Value {
	if c.kind == store.KindNull || c.null(i) {
		return store.Null()
	}
	switch c.kind {
	case store.KindInt:
		return store.Int(c.intAt(i))
	case store.KindFloat:
		return store.Float(c.floats[i])
	case store.KindText:
		return store.Text(c.str(i))
	case store.KindBool:
		return store.Bool(c.bools[i])
	}
	return store.Null()
}

// vbatch is one unit of batch-at-a-time execution: n physical rows of
// column vectors, with an optional selection vector listing the rows
// that survived upstream filters. Expression kernels compute over all
// physical rows (cheap, branch-free); consumers iterate the selection.
//
// Ownership: a returned batch is lent. It is the consumer's, header
// included (Filter and Limit set sel on it), until the consumer pulls
// the next one; then the producer may reuse all of it that is not
// immutable storage (segment payloads, dictionaries, a constant's
// broadcast): header, cols slice, null masks, selection. An operator
// forwarding lent parts in its own batch (Project's column refs) lends
// them on under the same term. Whoever holds a batch longer takes
// keep's copy; keepBatches is the one retainer. Everything else an
// operator computes about a batch lives in scratch the operator
// instance owns and reuses for its next batch. scratch is how that
// reaches the expression kernels: an operator whose expression results
// die inside it (Filter, Aggregate, the join probe) points it at its
// own vscratch for the duration of the evaluation and clears it before
// the batch moves on; with it nil (Project, the aggregate's output
// items), kernels allocate, and their output may escape.
type vbatch struct {
	n       int
	cols    []vcol
	sel     []int32 // retained physical row indexes, nil = all n rows
	scratch *vscratch
}

// keep returns a copy of b that stays valid after b's producer is
// pulled again: its own header, cols slice, null masks and selection
// over the same immutable payloads.
func (b *vbatch) keep() *vbatch {
	out := &vbatch{n: b.n, cols: slices.Clone(b.cols), sel: slices.Clone(b.sel)}
	for c := range out.cols {
		if !out.cols[c].isConst {
			out.cols[c].nulls = slices.Clone(out.cols[c].nulls)
		}
	}
	return out
}

// rows returns the number of selected rows.
func (b *vbatch) rows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// forSel calls f for every selected physical row index.
func (b *vbatch) forSel(f func(i int)) {
	if b.sel != nil {
		for _, i := range b.sel {
			f(int(i))
		}
		return
	}
	for i := 0; i < b.n; i++ {
		f(i)
	}
}

// col returns column c in directly indexable form: an int column
// travelling encoded is decoded, into the evaluating operator's
// scratch when the batch carries one (the vector then dies with that
// evaluation), otherwise into a fresh slice that replaces the encoded
// form on the batch, so a column is decoded at most once.
func (b *vbatch) col(c int) vcol {
	vc := b.cols[c]
	if vc.seg == nil {
		return vc
	}
	vc.ints, vc.seg = vc.seg.DecodeInts(vc.off, vc.off+b.n, b.scratch.intBuf(b.n)), nil
	if b.scratch == nil {
		b.cols[c] = vc
	}
	return vc
}

// vscratch is the reusable working memory of one operator instance:
// the buffers expression kernels, key hashing and column decoding
// write results into that do not outlive the operator's handling of
// one batch. Buffers are handed out in call order and grow to the
// batch in hand, never ahead of it, so a pipeline over a few hundred
// rows pays for a few hundred rows. A nil *vscratch allocates.
type vscratch struct {
	bools  bufPool[bool]
	ints   bufPool[int64]
	floats bufPool[float64]
	hashes bufPool[uint64]
	sels   bufPool[int32]
}

// reset makes every buffer available again; the operator calls it
// once per batch, before evaluating anything over it.
func (s *vscratch) reset() {
	s.bools.used, s.ints.used, s.floats.used, s.hashes.used, s.sels.used = 0, 0, 0, 0, 0
}

// scratchSet is the working memory of one exchange worker: the pipeline
// it opens for each morsel takes, in open order, the vscratches its
// previous morsel's did — that pipeline is drained, and whatever it
// lent folded or copied, before the worker claims again.
type scratchSet struct {
	all  []*vscratch
	used int
}

// takeScratch hands an operator instance its vscratch at open time: a
// fresh one, or inside an exchange worker the next of the worker's set.
func (c *Ctx) takeScratch() *vscratch {
	ss := c.vs
	if ss == nil {
		return &vscratch{}
	}
	if ss.used == len(ss.all) {
		ss.all = append(ss.all, &vscratch{})
	}
	ss.used++
	return ss.all[ss.used-1]
}

// bufPool hands out the k-th buffer of a batch's evaluation from the
// same backing array every batch.
type bufPool[T any] struct {
	bufs [][]T
	used int
}

// take returns a buffer of n elements with unspecified contents.
func (p *bufPool[T]) take(n int) []T {
	if p.used == len(p.bufs) {
		p.bufs = append(p.bufs, nil)
	}
	buf := p.bufs[p.used]
	if cap(buf) < n {
		buf = make([]T, n)
		p.bufs[p.used] = buf
	}
	p.used++
	return buf[:n]
}

// boolBuf returns n cleared bools — a kernel's result vector or a
// null mask it will set sparsely.
func (s *vscratch) boolBuf(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	buf := s.bools.take(n)
	clear(buf)
	return buf
}

// intBuf and floatBuf return n values the kernel overwrites in full.
func (s *vscratch) intBuf(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	return s.ints.take(n)
}

func (s *vscratch) floatBuf(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.floats.take(n)
}

// selBuf returns an empty selection list with room for n rows.
func (s *vscratch) selBuf(n int) []int32 { return s.sels.take(n)[:0] }

// hashBuf returns n zeroed hash accumulators.
func (s *vscratch) hashBuf(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	buf := s.hashes.take(n)
	clear(buf)
	return buf
}

// relKinds maps every row slot of rel to its stored value kind.
func relKinds(rel *Rel) []store.Kind {
	kinds := make([]store.Kind, rel.Width)
	for _, b := range rel.Bindings {
		for p, ci := range b.Cols {
			kinds[b.Off+p] = store.KindOfColType(b.Meta.Columns[ci].Type)
		}
	}
	return kinds
}

// orNulls unions two null masks (either may be nil). With at most one
// mask present the result aliases it: kernels treat operand masks as
// read-only, and one that goes on to mark rows of its own takes a copy
// first (ownNulls).
func orNulls(s *vscratch, a, b []bool, n int) []bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := s.boolBuf(n)
	for i := 0; i < n; i++ {
		out[i] = a[i] || b[i]
	}
	return out
}

// ownNulls returns a mask the kernel may write: a copy of an operand's
// mask, or a cleared one when the operand has none.
func ownNulls(s *vscratch, nulls []bool, n int) []bool {
	out := s.boolBuf(n)
	copy(out, nulls)
	return out
}

// asFloats widens a numeric column to float64s for arithmetic (a view
// for FLOAT columns, a converted copy for INT). Comparisons never
// widen: they convert per element.
func asFloats(s *vscratch, c *vcol, n int) []float64 {
	if c.kind == store.KindFloat {
		return c.floats[:n]
	}
	out := s.floatBuf(n)
	for i, v := range c.ints[:n] {
		out[i] = float64(v)
	}
	return out
}

// vexpr is a compiled vector expression: eval produces a column
// aligned with the batch's physical rows. Kernels are total — every
// scalar error case (division by zero, NULL operands) maps to NULL —
// so evaluation over filtered-out rows is harmless. Result vectors
// come from the batch's scratch handle (see vbatch), operand vectors
// are read-only, and a result may alias an operand's null mask.
type vexpr interface {
	kind() store.Kind
	eval(b *vbatch) vcol
}

// ---- leaf vexprs ----

// vcolRef loads a batch column.
type vcolRef struct {
	off int
	k   store.Kind
}

func (v *vcolRef) kind() store.Kind    { return v.k }
func (v *vcolRef) eval(b *vbatch) vcol { return b.col(v.off) }

// vconst broadcasts a constant; the backing slice grows monotonically
// and is shared across batches (constants never change).
type vconst struct {
	val   store.Value
	cache vcol
	cap   int
}

func (v *vconst) kind() store.Kind { return v.val.Kind() }

func (v *vconst) eval(b *vbatch) vcol {
	n := b.n
	if n > v.cap {
		v.grow(n)
	}
	out := v.cache
	switch out.kind {
	case store.KindInt:
		out.ints = out.ints[:n]
	case store.KindFloat:
		out.floats = out.floats[:n]
	case store.KindText:
		out.strs = out.strs[:n]
	case store.KindBool:
		out.bools = out.bools[:n]
	}
	if out.nulls != nil {
		out.nulls = out.nulls[:n]
	}
	return out
}

func (v *vconst) grow(n int) {
	v.cap = n
	v.cache = vcol{kind: v.val.Kind(), isConst: true}
	switch v.val.Kind() {
	case store.KindNull:
		nulls := make([]bool, n)
		for i := range nulls {
			nulls[i] = true
		}
		v.cache.nulls = nulls
	case store.KindInt:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = v.val.Int64()
		}
		v.cache.ints = ints
	case store.KindFloat:
		f, _ := v.val.AsFloat()
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = f
		}
		v.cache.floats = floats
	case store.KindText:
		strs := make([]string, n)
		for i := range strs {
			strs[i] = v.val.Str()
		}
		v.cache.strs = strs
	case store.KindBool:
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = v.val.BoolVal()
		}
		v.cache.bools = bools
	}
}

// allNull is the constant NULL column — the folded form of any
// expression with a NULL literal operand.
func allNull() vexpr { return &vconst{val: store.Null()} }

// ---- comparison ----

type vcmp struct {
	op   sql.BinOp
	l, r vexpr
}

func (v *vcmp) kind() store.Kind { return store.KindBool }

func (v *vcmp) eval(b *vbatch) vcol {
	lc, rc := v.l.eval(b), v.r.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	nulls := orNulls(b.scratch, lc.nulls, rc.nulls, n)
	op := v.op
	switch {
	case lc.kind == store.KindInt && rc.kind == store.KindInt:
		li, ri := lc.ints[:n], rc.ints[:n]
		for i := 0; i < n; i++ {
			out[i] = cmpOpInt(op, li[i], ri[i])
		}
	case lc.kind == store.KindText:
		switch {
		case lc.dict != nil && rc.isConst && n > 0:
			// Code space vs constant: one comparison per dictionary
			// entry, then a table gather over the codes.
			rv := rc.str(0)
			res := b.scratch.boolBuf(len(lc.dict))
			for d, s := range lc.dict {
				res[d] = cmpOpStr(op, s, rv)
			}
			codes := lc.codes[:n]
			for i := 0; i < n; i++ {
				out[i] = res[codes[i]]
			}
		case rc.dict != nil && lc.isConst && n > 0:
			lv := lc.str(0)
			res := b.scratch.boolBuf(len(rc.dict))
			for d, s := range rc.dict {
				res[d] = cmpOpStr(op, lv, s)
			}
			codes := rc.codes[:n]
			for i := 0; i < n; i++ {
				out[i] = res[codes[i]]
			}
		case lc.dict == nil && rc.dict == nil:
			ls, rs := lc.strs[:n], rc.strs[:n]
			for i := 0; i < n; i++ {
				out[i] = cmpOpStr(op, ls[i], rs[i])
			}
		default:
			for i := 0; i < n; i++ {
				out[i] = cmpOpStr(op, lc.str(i), rc.str(i))
			}
		}
	case lc.kind == store.KindBool:
		lb, rb := lc.bools[:n], rc.bools[:n]
		for i := 0; i < n; i++ {
			out[i] = cmpOpInt(op, boolRank(lb[i]), boolRank(rb[i]))
		}
	default: // numeric, at least one side FLOAT: an INT side converts per element
		for i := 0; i < n; i++ {
			out[i] = cmpOpFloat(op, lc.floatAt(i), rc.floatAt(i))
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

func boolRank(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpOpInt(op sql.BinOp, a, b int64) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

func cmpOpFloat(op sql.BinOp, a, b float64) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

func cmpOpStr(op sql.BinOp, a, b string) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

// ---- numeric tests against constants ----

// vnumrange tests a numeric expression against constant bounds: the
// compiled form of  x OP c  and  x [NOT] BETWEEN c1 AND c2  when every
// bound is a non-NULL numeric constant — which is every numeric
// predicate a question template generates. The bounds fold at compile
// time into one closed interval in x's own domain, [ilo, ihi] over
// int64 for an INT x and [flo, fhi] over float64 for a FLOAT x, whose
// membership (inverted by neg) is exactly what the generic kernels
// compute row by row: an INT x against a FLOAT bound compares as
// float64(x), so its interval is the set of integers whose conversion
// satisfies the bound, found by bisection with that very comparison.
// An empty interval has lo > hi.
//
// One interval test serves every operator and both constant kinds,
// needs no broadcast constant vector, and — the point — runs directly
// on a segment's encoded ints (store.SegCol.IntsInRange): FOR deltas
// compare against the interval rebased once per batch, RLE runs
// compare once each, and the column is never decoded.
type vnumrange struct {
	x        vexpr
	neg      bool
	ilo, ihi int64
	flo, fhi float64
}

func (v *vnumrange) kind() store.Kind { return store.KindBool }

func (v *vnumrange) eval(b *vbatch) vcol {
	var xc vcol
	if ref, ok := v.x.(*vcolRef); ok {
		xc = b.cols[ref.off] // an encoded column stays encoded
	} else {
		xc = v.x.eval(b)
	}
	n := b.n
	out := b.scratch.boolBuf(n)
	switch {
	case xc.seg != nil:
		xc.seg.IntsInRange(out, xc.off, xc.off+n, v.ilo, v.ihi, v.neg)
	case xc.kind == store.KindInt:
		lo, hi, neg := v.ilo, v.ihi, v.neg
		for i, x := range xc.ints[:n] {
			out[i] = (x >= lo && x <= hi) != neg
		}
	default:
		lo, hi, neg := v.flo, v.fhi, v.neg
		for i, x := range xc.floats[:n] {
			out[i] = (x >= lo && x <= hi) != neg
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: xc.nulls}
}

// numBound is one end of a vnumrange under construction: the constant
// and whether the comparison excludes it.
type numBound struct {
	v      store.Value
	strict bool
}

// cmpBounds maps  x OP c  onto interval bounds (nil = unbounded).
func cmpBounds(op sql.BinOp, c store.Value) (lo, hi *numBound, neg bool) {
	switch op {
	case sql.OpEq, sql.OpNe:
		return &numBound{v: c}, &numBound{v: c}, op == sql.OpNe
	case sql.OpGt, sql.OpGe:
		return &numBound{v: c, strict: op == sql.OpGt}, nil, false
	default: // OpLt, OpLe
		return nil, &numBound{v: c, strict: op == sql.OpLt}, false
	}
}

// newNumRange folds the bounds (nil = unbounded on that side) into x's
// domain.
func newNumRange(x vexpr, lo, hi *numBound, neg bool) *vnumrange {
	v := &vnumrange{x: x, neg: neg, ilo: math.MinInt64, ihi: math.MaxInt64,
		flo: math.Inf(-1), fhi: math.Inf(1)}
	if x.kind() == store.KindFloat {
		// x > c is x >= the next float up, except above +Inf where
		// nothing lies; a NaN bound fails every comparison.
		if lo != nil {
			f, _ := lo.v.AsFloat()
			if f != f || (lo.strict && math.IsInf(f, 1)) {
				v.flo, v.fhi = 1, 0
				return v
			}
			if lo.strict {
				f = math.Nextafter(f, math.Inf(1))
			}
			v.flo = f
		}
		if hi != nil {
			f, _ := hi.v.AsFloat()
			if f != f || (hi.strict && math.IsInf(f, -1)) {
				v.flo, v.fhi = 1, 0
				return v
			}
			if hi.strict {
				f = math.Nextafter(f, math.Inf(-1))
			}
			v.fhi = f
		}
		return v
	}
	// INT x. With any FLOAT bound every comparison is between float64s,
	// exactly as the generic kernels widen.
	inFloats := (lo != nil && lo.v.Kind() == store.KindFloat) || (hi != nil && hi.v.Kind() == store.KindFloat)
	// above reports x > c (x >= c unless strict) in that domain. It is
	// monotone in x, so the integers passing a lower bound, and those
	// failing an upper one, each start at one point.
	above := func(x int64, bd *numBound, strict bool) bool {
		if inFloats {
			c, _ := bd.v.AsFloat()
			if strict {
				return float64(x) > c
			}
			return float64(x) >= c
		}
		if strict {
			return x > bd.v.Int64()
		}
		return x >= bd.v.Int64()
	}
	if lo != nil {
		first, ok := firstInt(func(x int64) bool { return above(x, lo, lo.strict) })
		if !ok {
			v.ilo, v.ihi = 1, 0
			return v
		}
		v.ilo = first
	}
	if hi != nil {
		// x fails  x < c  from the first x >= c on, and  x <= c  from
		// the first x > c on. Against NaN everything fails.
		c, _ := hi.v.AsFloat()
		first, ok := firstInt(func(x int64) bool { return c != c || above(x, hi, !hi.strict) })
		switch {
		case ok && first == math.MinInt64:
			v.ilo, v.ihi = 1, 0
		case ok:
			v.ihi = first - 1
		}
	}
	return v
}

// firstInt returns the smallest int64 satisfying pred, a predicate
// that once true stays true as x grows; ok is false when none does.
func firstInt(pred func(int64) bool) (x int64, ok bool) {
	if !pred(math.MaxInt64) {
		return 0, false
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// ---- boolean logic (three-valued) ----

type vlogic struct {
	and  bool
	l, r vexpr
}

func (v *vlogic) kind() store.Kind { return store.KindBool }

func (v *vlogic) eval(b *vbatch) vcol {
	lc, rc := v.l.eval(b), v.r.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	var nulls []bool
	for i := 0; i < n; i++ {
		lt := !lc.null(i) && lc.kind == store.KindBool && lc.bools[i]
		lf := !lc.null(i) && lc.kind == store.KindBool && !lc.bools[i]
		rt := !rc.null(i) && rc.kind == store.KindBool && rc.bools[i]
		rf := !rc.null(i) && rc.kind == store.KindBool && !rc.bools[i]
		if v.and {
			switch {
			case lf || rf:
				out[i] = false
			case lt && rt:
				out[i] = true
			default:
				if nulls == nil {
					nulls = b.scratch.boolBuf(n)
				}
				nulls[i] = true
			}
		} else {
			switch {
			case lt || rt:
				out[i] = true
			case lf && rf:
				out[i] = false
			default:
				if nulls == nil {
					nulls = b.scratch.boolBuf(n)
				}
				nulls[i] = true
			}
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

type vnot struct{ x vexpr }

func (v *vnot) kind() store.Kind { return store.KindBool }

func (v *vnot) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	if xc.kind == store.KindBool {
		for i := 0; i < n; i++ {
			out[i] = !xc.bools[i]
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: xc.nulls}
}

// ---- arithmetic ----

type varith struct {
	op   sql.BinOp
	l, r vexpr
	out  store.Kind
}

func (v *varith) kind() store.Kind { return v.out }

func (v *varith) eval(b *vbatch) vcol {
	lc, rc := v.l.eval(b), v.r.eval(b)
	n := b.n
	nulls := orNulls(b.scratch, lc.nulls, rc.nulls, n)
	if v.out == store.KindInt {
		li, ri := lc.ints[:n], rc.ints[:n]
		out := b.scratch.intBuf(n)
		switch v.op {
		case sql.OpAdd:
			for i := 0; i < n; i++ {
				out[i] = li[i] + ri[i]
			}
		case sql.OpSub:
			for i := 0; i < n; i++ {
				out[i] = li[i] - ri[i]
			}
		case sql.OpMul:
			for i := 0; i < n; i++ {
				out[i] = li[i] * ri[i]
			}
		}
		return vcol{kind: store.KindInt, ints: out, nulls: nulls}
	}
	lf, rf := asFloats(b.scratch, &lc, n), asFloats(b.scratch, &rc, n)
	out := b.scratch.floatBuf(n)
	switch v.op {
	case sql.OpAdd:
		for i := 0; i < n; i++ {
			out[i] = lf[i] + rf[i]
		}
	case sql.OpSub:
		for i := 0; i < n; i++ {
			out[i] = lf[i] - rf[i]
		}
	case sql.OpMul:
		for i := 0; i < n; i++ {
			out[i] = lf[i] * rf[i]
		}
	case sql.OpDiv:
		// Division by zero yields NULL, exactly like the scalar path.
		owned := false
		for i := 0; i < n; i++ {
			if rf[i] == 0 {
				if !owned {
					nulls, owned = ownNulls(b.scratch, nulls, n), true
				}
				nulls[i] = true
				out[i] = 0
				continue
			}
			out[i] = lf[i] / rf[i]
		}
	}
	return vcol{kind: store.KindFloat, floats: out, nulls: nulls}
}

type vneg struct {
	x   vexpr
	out store.Kind
}

func (v *vneg) kind() store.Kind { return v.out }

func (v *vneg) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	if v.out == store.KindInt {
		out := b.scratch.intBuf(n)
		for i, x := range xc.ints[:n] {
			out[i] = -x
		}
		return vcol{kind: store.KindInt, ints: out, nulls: xc.nulls}
	}
	out := b.scratch.floatBuf(n)
	for i, x := range xc.floats[:n] {
		out[i] = -x
	}
	return vcol{kind: store.KindFloat, floats: out, nulls: xc.nulls}
}

// ---- IS NULL / BETWEEN / IN / LIKE ----

type visnull struct {
	x       vexpr
	negated bool
}

func (v *visnull) kind() store.Kind { return store.KindBool }

func (v *visnull) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	for i := 0; i < n; i++ {
		out[i] = xc.null(i) != v.negated
	}
	return vcol{kind: store.KindBool, bools: out}
}

// vbetween implements BETWEEN directly rather than as an AND of
// comparisons: the scalar path returns NULL whenever any operand is
// NULL, even when another bound already disqualifies the row. Numeric
// BETWEEN against constant bounds compiles to vnumrange instead.
type vbetween struct {
	x, lo, hi vexpr
	negated   bool
	text      bool
}

func (v *vbetween) kind() store.Kind { return store.KindBool }

func (v *vbetween) eval(b *vbatch) vcol {
	xc, loc, hic := v.x.eval(b), v.lo.eval(b), v.hi.eval(b)
	n := b.n
	nulls := orNulls(b.scratch, orNulls(b.scratch, xc.nulls, loc.nulls, n), hic.nulls, n)
	out := b.scratch.boolBuf(n)
	if v.text {
		if xc.dict != nil && loc.isConst && hic.isConst && n > 0 {
			lo, hi := loc.str(0), hic.str(0)
			res := b.scratch.boolBuf(len(xc.dict))
			for d, s := range xc.dict {
				res[d] = (s >= lo && s <= hi) != v.negated
			}
			codes := xc.codes[:n]
			for i := 0; i < n; i++ {
				out[i] = res[codes[i]]
			}
		} else if xc.dict == nil && loc.dict == nil && hic.dict == nil {
			xs, los, his := xc.strs[:n], loc.strs[:n], hic.strs[:n]
			for i := 0; i < n; i++ {
				in := xs[i] >= los[i] && xs[i] <= his[i]
				out[i] = in != v.negated
			}
		} else {
			for i := 0; i < n; i++ {
				x := xc.str(i)
				in := x >= loc.str(i) && x <= hic.str(i)
				out[i] = in != v.negated
			}
		}
	} else if xc.kind == store.KindInt && loc.kind == store.KindInt && hic.kind == store.KindInt {
		xs, los, his := xc.ints[:n], loc.ints[:n], hic.ints[:n]
		for i := 0; i < n; i++ {
			in := xs[i] >= los[i] && xs[i] <= his[i]
			out[i] = in != v.negated
		}
	} else { // numeric with a FLOAT operand: INT operands convert per element
		for i := 0; i < n; i++ {
			x := xc.floatAt(i)
			in := x >= loc.floatAt(i) && x <= hic.floatAt(i)
			out[i] = in != v.negated
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

// vin implements IN over a literal list. Elements are pre-bucketed by
// kind; elements whose kind cannot equal x contribute nothing (SQL
// equality across non-numeric kinds is false), while NULL elements
// force the not-found result to NULL.
type vin struct {
	x        vexpr
	negated  bool
	sawNull  bool
	intElems []int64
	fltElems []float64
	strElems []string
	hasTrue  bool
	hasFalse bool
}

func (v *vin) kind() store.Kind { return store.KindBool }

func (v *vin) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	nulls, owned := xc.nulls, false
	strIn := func(x string) bool {
		for _, e := range v.strElems {
			if x == e {
				return true
			}
		}
		return false
	}
	// Code space: membership computed once per dictionary entry, looked
	// up through the codes.
	var dictIn []bool
	if xc.kind == store.KindText && xc.dict != nil {
		dictIn = b.scratch.boolBuf(len(xc.dict))
		for d, s := range xc.dict {
			dictIn[d] = strIn(s)
		}
	}
	found := func(i int) bool {
		switch xc.kind {
		case store.KindInt:
			x := xc.ints[i]
			for _, e := range v.intElems {
				if x == e {
					return true
				}
			}
			for _, e := range v.fltElems {
				if float64(x) == e {
					return true
				}
			}
		case store.KindFloat:
			x := xc.floats[i]
			for _, e := range v.intElems {
				if x == float64(e) {
					return true
				}
			}
			for _, e := range v.fltElems {
				if x == e {
					return true
				}
			}
		case store.KindText:
			if dictIn != nil {
				return dictIn[xc.codes[i]]
			}
			return strIn(xc.strs[i])
		case store.KindBool:
			return (xc.bools[i] && v.hasTrue) || (!xc.bools[i] && v.hasFalse)
		}
		return false
	}
	for i := 0; i < n; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		switch {
		case found(i):
			out[i] = !v.negated
		case v.sawNull:
			if !owned {
				nulls, owned = ownNulls(b.scratch, nulls, n), true
			}
			nulls[i] = true
		default:
			out[i] = v.negated
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

type vlike struct {
	x       vexpr
	pattern string
	negated bool
}

func (v *vlike) kind() store.Kind { return store.KindBool }

func (v *vlike) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	nulls := xc.nulls
	// Code space: LIKE is matched once per dictionary entry.
	var dictRes []bool
	if xc.dict != nil {
		dictRes = b.scratch.boolBuf(len(xc.dict))
		for d, s := range xc.dict {
			dictRes[d] = strutil.MatchLike(s, v.pattern) != v.negated
		}
	}
	for i := 0; i < n; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		if dictRes != nil {
			out[i] = dictRes[xc.codes[i]]
			continue
		}
		out[i] = strutil.MatchLike(xc.strs[i], v.pattern) != v.negated
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

// ---- compiler ----

// vcompiler compiles sql.Expr into vexprs. resolve is the leaf hook:
// it maps column references (and, for the aggregate output compiler,
// whole grouped/aggregate subexpressions) to columns. It returns
// handled=false to let structural compilation proceed, or handled=true
// with a nil vexpr to decline.
//
// Parameter slots resolve in one of two modes. The structural mode
// (compileRel — the staticVec/fullyVec vectorizability checks)
// substitutes a kind-representative surrogate that is never evaluated:
// every structural decision depends only on the parameter's declared
// kind, so the check agrees with any later bound compile of the same
// shape. The runtime mode (compileRelWith — operator vopens) resolves
// through the run's actual vector and *declines* on a missing slot,
// sending the expression to the row path, which raises the unbound-
// parameter error — a plan executed without its vector must fail
// loudly, never silently filter on a surrogate.
type vcompiler struct {
	resolve    func(e sql.Expr) (vexpr, bool)
	params     []store.Value
	structural bool
}

// compileRel builds a structural-mode compiler over a relational row
// shape.
func compileRel(rel *Rel) *vcompiler {
	c := compileRelWith(rel, nil)
	c.structural = true
	return c
}

// compileRelWith builds a runtime-mode compiler with the run's
// parameter vector bound.
func compileRelWith(rel *Rel, params []store.Value) *vcompiler {
	kinds := relKinds(rel)
	return &vcompiler{params: params, resolve: func(e sql.Expr) (vexpr, bool) {
		ref, ok := e.(sql.ColumnRef)
		if !ok {
			return nil, false
		}
		off, found, ambiguous := OffsetIn(rel, ref)
		if !found || ambiguous {
			// Unknown here: correlation into an outer frame, a pruned
			// column, or an ambiguous name — all row-path territory.
			return nil, true
		}
		return &vcolRef{off: off, k: kinds[off]}, true
	}}
}

// paramVal resolves a parameter slot per the compiler's mode; ok is
// false when a runtime compile finds no bound value.
func (c *vcompiler) paramVal(p sql.Param) (store.Value, bool) {
	if p.Idx >= 0 && p.Idx < len(c.params) {
		return c.params[p.Idx], true
	}
	if c.structural {
		return surrogateVal(p.Kind), true
	}
	return store.Value{}, false
}

// surrogateVal is a kind-representative stand-in value used only to
// answer "would this expression vectorize" — never evaluated.
func surrogateVal(k store.Kind) store.Value {
	switch k {
	case store.KindInt:
		return store.Int(0)
	case store.KindFloat:
		return store.Float(0)
	case store.KindText:
		return store.Text("")
	case store.KindBool:
		return store.Bool(false)
	}
	return store.Null()
}

func numericOrNull(k store.Kind) bool {
	return k == store.KindInt || k == store.KindFloat || k == store.KindNull
}

// compile lowers e to a vexpr; ok is false when e (or a subexpression)
// is not vectorizable.
func (c *vcompiler) compile(e sql.Expr) (vexpr, bool) {
	if ve, handled := c.resolve(e); handled {
		return ve, ve != nil
	}
	switch n := e.(type) {
	case sql.Literal:
		return &vconst{val: n.Val}, true
	case sql.Param:
		v, ok := c.paramVal(n)
		if !ok {
			return nil, false
		}
		return &vconst{val: v}, true
	case *sql.BinaryExpr:
		l, ok := c.compile(n.L)
		if !ok {
			return nil, false
		}
		r, ok := c.compile(n.R)
		if !ok {
			return nil, false
		}
		lk, rk := l.kind(), r.kind()
		switch {
		case n.Op == sql.OpAnd || n.Op == sql.OpOr:
			if (lk != store.KindBool && lk != store.KindNull) ||
				(rk != store.KindBool && rk != store.KindNull) {
				return nil, false
			}
			return &vlogic{and: n.Op == sql.OpAnd, l: l, r: r}, true
		case n.Op.IsComparison():
			if lk == store.KindNull || rk == store.KindNull {
				return allNull(), true
			}
			comparable := (numericOrNull(lk) && numericOrNull(rk)) || lk == rk
			if !comparable {
				return nil, false // cross-kind comparison: row path
			}
			if numericOrNull(lk) {
				if k, ok := r.(*vconst); ok {
					lo, hi, neg := cmpBounds(n.Op, k.val)
					return newNumRange(l, lo, hi, neg), true
				}
				if k, ok := l.(*vconst); ok {
					lo, hi, neg := cmpBounds(flipCmp(n.Op), k.val)
					return newNumRange(r, lo, hi, neg), true
				}
			}
			return &vcmp{op: n.Op, l: l, r: r}, true
		default: // arithmetic
			if !numericOrNull(lk) || !numericOrNull(rk) {
				return nil, false
			}
			if lk == store.KindNull || rk == store.KindNull {
				return allNull(), true
			}
			out := store.KindFloat
			if n.Op != sql.OpDiv && lk == store.KindInt && rk == store.KindInt {
				out = store.KindInt
			}
			return &varith{op: n.Op, l: l, r: r, out: out}, true
		}
	case *sql.NotExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		switch x.kind() {
		case store.KindNull:
			return allNull(), true
		case store.KindBool:
			return &vnot{x: x}, true
		}
		// NOT over a non-boolean: the scalar path treats any non-TRUE
		// value as falsy; reproduce by declining to the row path.
		return nil, false
	case *sql.NegExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		switch x.kind() {
		case store.KindNull:
			return allNull(), true
		case store.KindInt, store.KindFloat:
			return &vneg{x: x, out: x.kind()}, true
		}
		return nil, false
	case *sql.IsNullExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		return &visnull{x: x, negated: n.Negated}, true
	case *sql.BetweenExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		lo, ok := c.compile(n.Lo)
		if !ok {
			return nil, false
		}
		hi, ok := c.compile(n.Hi)
		if !ok {
			return nil, false
		}
		ks := [3]store.Kind{x.kind(), lo.kind(), hi.kind()}
		for _, k := range ks {
			if k == store.KindNull {
				return allNull(), true
			}
		}
		allNum := numericOrNull(ks[0]) && numericOrNull(ks[1]) && numericOrNull(ks[2])
		allText := ks[0] == store.KindText && ks[1] == store.KindText && ks[2] == store.KindText
		if !allNum && !allText {
			return nil, false
		}
		if allNum {
			lk, lok := lo.(*vconst)
			hk, hok := hi.(*vconst)
			if lok && hok {
				return newNumRange(x, &numBound{v: lk.val}, &numBound{v: hk.val}, n.Negated), true
			}
		}
		return &vbetween{x: x, lo: lo, hi: hi, negated: n.Negated, text: allText}, true
	case *sql.InExpr:
		if n.Sub != nil {
			return nil, false
		}
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		if x.kind() == store.KindNull {
			return allNull(), true
		}
		in := &vin{x: x, negated: n.Negated}
		for _, le := range n.List {
			var val store.Value
			switch l := le.(type) {
			case sql.Literal:
				val = l.Val
			case sql.Param:
				var ok bool
				if val, ok = c.paramVal(l); !ok {
					return nil, false
				}
			default:
				return nil, false
			}
			switch val.Kind() {
			case store.KindNull:
				in.sawNull = true
			case store.KindInt:
				in.intElems = append(in.intElems, val.Int64())
			case store.KindFloat:
				f, _ := val.AsFloat()
				in.fltElems = append(in.fltElems, f)
			case store.KindText:
				in.strElems = append(in.strElems, val.Str())
			case store.KindBool:
				if val.BoolVal() {
					in.hasTrue = true
				} else {
					in.hasFalse = true
				}
			}
		}
		return in, true
	case *sql.LikeExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		var pat store.Value
		switch p := n.Pattern.(type) {
		case sql.Literal:
			pat = p.Val
		case sql.Param:
			var ok bool
			if pat, ok = c.paramVal(p); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
		if x.kind() == store.KindNull || pat.IsNull() {
			return allNull(), true
		}
		if x.kind() != store.KindText || pat.Kind() != store.KindText {
			return nil, false
		}
		return &vlike{x: x, pattern: pat.Str(), negated: n.Negated}, true
	}
	// FuncCall (aggregates), subqueries, EXISTS: row path.
	return nil, false
}

// compilesOver reports whether every expression compiles over rel.
func compilesOver(rel *Rel, exprs ...sql.Expr) bool {
	c := compileRel(rel)
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if _, ok := c.compile(e); !ok {
			return false
		}
	}
	return true
}

// ---- typed hashing ----

// mix64 is a splitmix64-style finalizer used to build composite
// 64-bit hash keys without string concatenation.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const (
	hashNullTag = 0x9e3779b97f4a7c15
	hashNaNTag  = 0x2545f4914f6cdd1d
	hashTrue    = 0x9e3779b97f4a7c16
	hashFalse   = 0x9e3779b97f4a7c17
)

func hashFloat(f float64) uint64 {
	if f != f { // NaN
		return hashNaNTag
	}
	if f == 0 { // fold -0.0 onto 0.0
		f = 0
	}
	return mix64(math.Float64bits(f))
}

func hashString(s string) uint64 {
	// FNV-1a, 64-bit.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashCol folds the selected rows of column c (all n when sel is nil)
// into the per-row hash accumulators hs, which are indexed by physical
// row. Numeric values hash through their canonical float64 form, so an
// INT key column and a FLOAT key column hash equal values identically
// (matching Value.Key equality for joins).
func hashCol(c *vcol, n int, sel []int32, hs []uint64, sc *vscratch) {
	// Code space: hash each dictionary entry once, gather through the
	// codes — GROUP BY and join keys on dictionary columns never hash
	// the same string twice per batch.
	var dictH []uint64
	if c.kind == store.KindText && c.dict != nil {
		dictH = sc.hashBuf(len(c.dict))
		for d, s := range c.dict {
			dictH[d] = hashString(s)
		}
	}
	m := n
	if sel != nil {
		m = len(sel)
	}
	for k := 0; k < m; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		var h uint64
		switch {
		case c.kind == store.KindNull || c.null(i):
			h = hashNullTag
		case c.kind == store.KindInt:
			h = hashFloat(float64(c.intAt(i)))
		case c.kind == store.KindFloat:
			h = hashFloat(c.floats[i])
		case c.kind == store.KindText:
			if dictH != nil {
				h = dictH[c.codes[i]]
			} else {
				h = hashString(c.strs[i])
			}
		default:
			if c.bools[i] {
				h = hashTrue
			} else {
				h = hashFalse
			}
		}
		hs[i] = mix64(hs[i] ^ h)
	}
}

// eqVals compares value i of column a with value j of column b under
// key-equality semantics: NULLs equal each other (grouping semantics —
// join kernels exclude NULL keys before probing), numerics compare
// consistently with Value.Key equality, and NaN equals NaN (one group,
// matching the row path's "NaN" key string).
func eqVals(a *vcol, i int, b *vcol, j int) bool {
	an := a.kind == store.KindNull || a.null(i)
	bn := b.kind == store.KindNull || b.null(j)
	if an || bn {
		return an && bn
	}
	switch a.kind {
	case store.KindInt:
		switch b.kind {
		case store.KindInt:
			return a.intAt(i) == b.intAt(j)
		case store.KindFloat:
			return keyEqIntFloat(a.intAt(i), b.floats[j])
		}
	case store.KindFloat:
		switch b.kind {
		case store.KindInt:
			return keyEqIntFloat(b.intAt(j), a.floats[i])
		case store.KindFloat:
			x, y := a.floats[i], b.floats[j]
			return x == y || (x != x && y != y)
		}
	case store.KindText:
		if b.kind == store.KindText {
			if len(a.dict) > 0 && len(b.dict) > 0 && &a.dict[0] == &b.dict[0] {
				// Same dictionary (columns from one segment): codes
				// decide equality without touching the strings.
				return a.codes[i] == b.codes[j]
			}
			return a.str(i) == b.str(j)
		}
	case store.KindBool:
		if b.kind == store.KindBool {
			return a.bools[i] == b.bools[j]
		}
	}
	return false
}

// keyEqIntFloat mirrors Value.Key equality between an integer and a
// float: equal exactly when the float holds the same integral value.
func keyEqIntFloat(i int64, f float64) bool {
	return f == float64(int64(f)) && int64(f) == i && f == float64(i)
}

// ---- column builders ----

// colbuf accumulates rows into a growing typed column — the builder
// behind join build sides, GROUP BY key sets, DISTINCT seen sets and
// sort buffers.
type colbuf struct {
	kind    store.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool
	anyNull bool
}

func newColbuf(kind store.Kind) *colbuf { return &colbuf{kind: kind} }

func (cb *colbuf) len() int { return len(cb.nulls) }

// push appends value i of src.
func (cb *colbuf) push(src *vcol, i int) {
	isNull := src.kind == store.KindNull || src.null(i)
	cb.nulls = append(cb.nulls, isNull)
	if isNull {
		cb.anyNull = true
	}
	switch cb.kind {
	case store.KindInt:
		var v int64
		if !isNull {
			v = src.intAt(i)
		}
		cb.ints = append(cb.ints, v)
	case store.KindFloat:
		var v float64
		if !isNull {
			v = src.floats[i]
		}
		cb.floats = append(cb.floats, v)
	case store.KindText:
		var v string
		if !isNull {
			v = src.str(i)
		}
		cb.strs = append(cb.strs, v)
	case store.KindBool:
		var v bool
		if !isNull {
			v = src.bools[i]
		}
		cb.bools = append(cb.bools, v)
	}
}

// gatherVals copies src[sel[k]] to dst[k]; a nil sel copies the first
// len(dst) values straight across.
func gatherVals[T any](dst, src []T, sel []int32) {
	if sel == nil {
		copy(dst, src)
		return
	}
	for k, i := range sel {
		dst[k] = src[i]
	}
}

// pushValue appends a boxed value directly (the rows-to-batches
// adapter path), with no intermediate column wrapper.
func (cb *colbuf) pushValue(v store.Value) {
	isNull := v.IsNull()
	cb.nulls = append(cb.nulls, isNull)
	if isNull {
		cb.anyNull = true
	}
	switch cb.kind {
	case store.KindInt:
		cb.ints = append(cb.ints, v.Int64())
	case store.KindFloat:
		f, _ := v.AsFloat()
		cb.floats = append(cb.floats, f)
	case store.KindText:
		cb.strs = append(cb.strs, v.Str())
	case store.KindBool:
		cb.bools = append(cb.bools, v.BoolVal())
	}
}

// col freezes the builder into a column.
func (cb *colbuf) col() vcol {
	out := vcol{kind: cb.kind, ints: cb.ints, floats: cb.floats,
		strs: cb.strs, bools: cb.bools}
	if cb.anyNull {
		out.nulls = cb.nulls
	}
	return out
}

// gatherCol materializes src rows idxs into a dense column. This is
// the join-output and projection hot path, so each kind gathers
// through a tight preallocated loop; an encoded int column decodes
// only the gathered rows.
func gatherCol(src *vcol, idxs []int32) vcol {
	n := len(idxs)
	out := vcol{kind: src.kind}
	if src.nulls != nil {
		nulls := make([]bool, n)
		gatherVals(nulls, src.nulls, idxs)
		if slices.Contains(nulls, true) {
			out.nulls = nulls
		}
	}
	switch src.kind {
	case store.KindInt:
		out.ints = make([]int64, n)
		if src.seg != nil {
			src.seg.GatherInts(out.ints, src.off, idxs)
		} else {
			gatherVals(out.ints, src.ints, idxs)
		}
	case store.KindFloat:
		out.floats = make([]float64, n)
		gatherVals(out.floats, src.floats, idxs)
	case store.KindText:
		if src.dict != nil {
			// Late materialization: gather codes, share the dictionary —
			// strings are only built when a consumer finally asks.
			out.codes, out.dict = make([]int32, n), src.dict
			gatherVals(out.codes, src.codes, idxs)
			break
		}
		out.strs = make([]string, n)
		gatherVals(out.strs, src.strs, idxs)
	case store.KindBool:
		out.bools = make([]bool, n)
		gatherVals(out.bools, src.bools, idxs)
	case store.KindNull:
		out.nulls = allNullCol(n).nulls
	}
	return out
}
