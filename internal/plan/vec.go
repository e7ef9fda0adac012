package plan

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"

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
// The kernels reproduce the scalar semantics exactly for the SQL
// iql.ToSQL writes, and only that: a column compared with a constant
// (vnumrange, vcmp), numeric BETWEEN between constants, NOT, IN over a
// constant list or a subquery, and LIKE against a constant pattern.
// Subqueries, constant for the run, bind when the operator opens; what
// no kernel reproduces is not run (ErrUnsupported). See vcompiler.

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
// FOR-encoded segment column. Tests against constants run on
// the encoded form (vnumrange), point readers go through intAt or
// gatherCol, and anything that needs the vector decodes it through
// vbatch.col. A column only a pushed-down predicate reads is therefore
// never decoded at all. Scans are the only producers of the form, a
// join probe that forwards its input carries it on, and it never
// crosses the projection boundary.
//
// A column that no operator above its join reads travels as the zero
// vcol, all-NULL, and is never written (HashJoin.live).
type vcol struct {
	kind    store.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool // nil when the column has no NULLs
	codes   []uint16
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
// Ownership: a returned batch is lent, and nobody keeps it. It is the
// consumer's, header included (Filter and Limit set sel on it), until
// the consumer pulls the next one; then the producer may reuse all of
// it that is not immutable storage (segment payloads, dictionaries, a
// constant's broadcast): header, cols slice, null masks, selection,
// and the data vectors a join probe writes (build columns and gathered
// matches) and Project, Distinct and Sort gather, which live in their
// scratch. An operator forwarding lent parts in its own batch
// (Project's column refs, a join probe's input columns and its match
// list as the selection) lends them on under the same term. Every
// consumer is done with a batch by its next pull: an aggregate folds it
// (group keys and held values are copied or immutable strings), a join
// build, Sort and Distinct push its rows into builders of their own,
// and Run boxes its rows.
// Everything else an operator computes about a batch lives in scratch
// the operator instance owns and reuses for its next batch. scratch is
// how that reaches the expression kernels: an operator whose expression
// results die inside it (Filter, Aggregate, the join probe) points it
// at its own vscratch for the duration of the evaluation and clears it
// before the batch moves on; with it nil (Project's expressions, the
// aggregate's output items), kernels allocate, and their output may
// escape.
//
// err is where a vfail reports its error once a selected row reaches
// it; the operator that evaluated the batch returns it.
type vbatch struct {
	n       int
	cols    []vcol
	sel     []int32 // retained physical row indexes, nil = all n rows
	scratch *vscratch
	err     error
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

// vscratch is the reusable working memory of one operator instance.
// Every vscratch is borrowed from the run's arena and goes back to the
// process-wide pool when Run returns (see runArena), so everything in
// it may hold a previous question's contents: each take either clears
// what it hands out or is documented as handing out values its caller
// overwrites before reading, and each structure below is emptied as it
// is taken. It holds three kinds of memory.
//
// Per batch: the buffers expression kernels, key hashing and column
// decoding write results into that do not outlive the operator's
// handling of one batch. They are handed out in call order, again from
// the first after each reset, and grow to the batch in hand, never
// ahead of it, so a pipeline over a few hundred rows pays for a few
// hundred rows. A nil *vscratch allocates.
//
// Per run: what the operator takes as it opens and keeps until the run
// ends — its output batch header (batch), column headers (hdrs) and a
// scan's null masks. reset leaves them alone.
//
// Structures the operator builds over the run, kept for the capacity
// their vectors grew to: the column builders a join build or a Sort
// drains its input into (bufs), a scan's position (scan), a hash join's
// build table (build, its hashes and chains in the per-batch buffers,
// which the build's scratch never resets), a Distinct's key set (set),
// an aggregate's group table with its key set and accumulators (table),
// and an exchange's morsels and worker contexts (exchange). An operator
// uses one of them, made the first time the scratch serves such an
// operator (own), so a scratch pays only for the ones it has served.
type vscratch struct {
	bools  bufPool[bool]
	ints   bufPool[int64]
	floats bufPool[float64]
	strs   bufPool[string]
	hashes bufPool[uint64]
	sels   bufPool[int32]
	codes  bufPool[uint16]

	cols    bufPool[vcol]
	batches bufPool[vbatch]
	masks   bufPool[[]bool]

	bufs     []colbuf
	scan     *segIter
	build    *vecBuildTable
	set      *keySet
	table    *groupTable
	exchange *exchangeRun
}

// own returns the structure *p, making it the first time.
func own[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// reset makes every per-batch buffer available again; the operator
// calls it once per batch, before evaluating anything over it.
func (s *vscratch) reset() {
	s.bools.used, s.ints.used, s.floats.used, s.strs.used, s.hashes.used, s.sels.used = 0, 0, 0, 0, 0, 0
	s.codes.used = 0
}

// bytes is what the scratch's buffers and structures hold: the measure
// the pool's cap (maxPooledScratch) is checked against.
func (s *vscratch) bytes() int {
	n := s.bools.elems() + 8*(s.ints.elems()+s.floats.elems()+s.hashes.elems()) +
		16*s.strs.elems() + 4*s.sels.elems() + 2*s.codes.elems() +
		vcolBytes*s.cols.elems() + vbatchBytes*s.batches.elems() +
		s.set.bytes() + s.table.bytes() + s.exchange.bytes()
	for _, cb := range s.bufs[:cap(s.bufs)] {
		n += cb.bytes()
	}
	for _, ms := range s.masks.bufs {
		for _, m := range ms[:cap(ms)] {
			n += cap(m)
		}
	}
	return n
}

// vcolBytes, vbatchBytes, workerBytes and aggStateBytes are the sizes
// of a column header, a batch header, an exchange worker's context and
// one slot's accumulator headers.
var (
	vcolBytes     = int(reflect.TypeFor[vcol]().Size())
	vbatchBytes   = int(reflect.TypeFor[vbatch]().Size())
	workerBytes   = int(reflect.TypeFor[worker]().Size())
	aggStateBytes = int(reflect.TypeFor[aggState]().Size())
)

// maxPooledScratch caps what goes back to the pool: a scratch holding
// more than 1 MiB of buffers is dropped when its run ends, so one big
// join build or group table cannot pin its memory in the pool for the
// questions after it.
const maxPooledScratch = 1 << 20

// scratchPool holds the vscratches of finished runs for the next ones.
// A run's operators, its scan batches, its join builds, key sets and
// group tables and its exchange workers draw their working memory from
// here instead of allocating it per question; the garbage collector
// empties the pool like any other sync.Pool.
var scratchPool = sync.Pool{New: func() any { return new(vscratch) }}

// runArena is the working memory one Run has borrowed from
// scratchPool, handed back all at once by release: everything the run
// allocates but its compiled programs, its goroutines and the rows it
// returns. Every operator instance borrows its vscratch as it opens —
// an exchange worker opens its pipeline once, for all the morsels it
// claims — and the workers borrow concurrently, hence the mutex. first
// holds a typical run's borrows without growing held.
type runArena struct {
	mu    sync.Mutex
	held  []*vscratch
	first [16]*vscratch
}

// borrow takes a vscratch from the pool for the rest of the run.
func (a *runArena) borrow() *vscratch {
	s := scratchPool.Get().(*vscratch)
	a.mu.Lock()
	if a.held == nil {
		a.held = a.first[:0]
	}
	a.held = append(a.held, s)
	a.mu.Unlock()
	return s
}

// release returns every borrowed vscratch within the cap to the pool.
// Run calls it once its rows are boxed: every exchange worker has been
// waited for, and the rows hold only immutable values, so nothing can
// still read a buffer. The first borrowed goes back first and the rest
// last to second: a P's pool hands out the first put, then the last put
// first, so the next run of the same plan on the same P borrows each
// scratch for the operator that grew it — the join build's for the
// build — rather than a shuffle.
func (a *runArena) release() {
	put := func(s *vscratch) {
		if s.bytes() <= maxPooledScratch {
			s.forget()
			scratchPool.Put(s)
		}
	}
	if len(a.held) > 0 {
		put(a.held[0])
		for i := len(a.held) - 1; i > 0; i-- {
			put(a.held[i])
		}
	}
	clear(a.first[:])
	a.held = nil
}

// forget resets s and drops what it references outside itself — column
// and batch headers view segment payloads and dictionaries, strings,
// in buffers and builders, may be a dictionary's, a group table holds
// its compiled plan and an exchange its run's and workers' contexts —
// so a pooled scratch pins no dropped snapshot's segments.
func (s *vscratch) forget() {
	s.reset()
	s.cols.used, s.batches.used, s.masks.used = 0, 0, 0
	for _, b := range s.cols.bufs {
		clear(b[:cap(b)])
	}
	for _, b := range s.batches.bufs {
		clear(b[:cap(b)])
	}
	for _, b := range s.strs.bufs {
		clear(b[:cap(b)])
	}
	for _, cb := range s.bufs[:cap(s.bufs)] {
		clear(cb.strs[:cap(cb.strs)])
	}
	if s.scan != nil {
		*s.scan = segIter{}
	}
	if s.build != nil {
		*s.build = vecBuildTable{}
	}
	s.set.forget()
	s.table.forget()
	s.exchange.forget()
}

// bufPool hands out the k-th buffer of a batch's evaluation from the
// same backing array every batch.
type bufPool[T any] struct {
	bufs [][]T
	used int
}

// take returns a buffer of n elements with unspecified contents: a
// previous batch's, or a previous question's.
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

// elems is the number of elements the pool's buffers hold.
func (p *bufPool[T]) elems() int {
	n := 0
	for _, b := range p.bufs {
		n += cap(b)
	}
	return n
}

// resize returns s with length n, over its own array when that is
// large enough: the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// hdrs returns n cleared column headers for the rest of the run.
func (s *vscratch) hdrs(n int) []vcol {
	h := s.cols.take(n)
	clear(h)
	return h
}

// batch returns an empty batch header over w cleared column headers
// for the rest of the run: an operator's output batch.
func (s *vscratch) batch(w int) *vbatch {
	b := &s.batches.take(1)[0]
	*b = vbatch{cols: s.hdrs(w)}
	return b
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

// strBuf and codeBuf return n empty strings and n zero dictionary
// codes: a column some rows of which are never written must still hold
// valid values there, for kernels that compute over every physical row.
func (s *vscratch) strBuf(n int) []string {
	if s == nil {
		return make([]string, n)
	}
	buf := s.strs.take(n)
	clear(buf)
	return buf
}

func (s *vscratch) codeBuf(n int) []uint16 {
	if s == nil {
		return make([]uint16, n)
	}
	buf := s.codes.take(n)
	clear(buf)
	return buf
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

// ownNulls returns a mask the kernel may write: a copy of an operand's
// mask, or a cleared one when the operand has none.
func ownNulls(s *vscratch, nulls []bool, n int) []bool {
	out := s.boolBuf(n)
	copy(out, nulls)
	return out
}

// vexpr is a compiled vector expression: eval produces a column
// aligned with the batch's physical rows. Kernels are total — a NULL
// operand maps to NULL — so evaluation over filtered-out rows is
// harmless. Result vectors
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

// vcmp compares a text expression with a text constant, c, the
// constant on the right (the compiler flips  c OP x  to  x OP' c). In
// code space it compares once per dictionary entry, then gathers the
// results through the codes.
type vcmp struct {
	op sql.BinOp
	x  vexpr
	c  string
}

func (v *vcmp) kind() store.Kind { return store.KindBool }

func (v *vcmp) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := b.scratch.boolBuf(n)
	if xc.dict != nil {
		res := b.scratch.boolBuf(len(xc.dict))
		for d, s := range xc.dict {
			res[d] = cmpOpStr(v.op, s, v.c)
		}
		for i, code := range xc.codes[:n] {
			out[i] = res[code]
		}
	} else {
		for i, s := range xc.strs[:n] {
			out[i] = cmpOpStr(v.op, s, v.c)
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: xc.nulls}
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
// membership (inverted by neg) is exactly what the reference executor
// computes row by row: an INT x against a FLOAT bound compares as
// float64(x), so its interval is the set of integers whose conversion
// satisfies the bound, found by bisection with that very comparison.
// An empty interval has lo > hi.
//
// One interval test serves every operator and both constant kinds,
// needs no broadcast constant vector, and — the point — runs directly
// on a segment's encoded ints (store.SegCol.IntsInRange): FOR deltas
// compare against the interval rebased once per batch, and the column
// is never decoded.
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
	// exactly as the reference executor widens.
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

// ---- NOT / IN / LIKE ----

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

// vin implements IN over a literal list, x a number or text (IN over a
// BOOL is unsupported, as a BOOL comparison is). Elements are
// pre-bucketed by kind; elements whose kind cannot equal x contribute
// nothing (SQL equality across non-numeric kinds is false), while NULL
// elements force the not-found result to NULL.
type vin struct {
	x        vexpr
	negated  bool
	sawNull  bool
	intElems []int64
	fltElems []float64
	strElems []string
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

// ---- zone-map refutation ----

// refuter is a compiled predicate that can tell, from a segment's zone
// maps alone, that it is non-TRUE on every row of the segment — so a
// Filter over a scan drops the segment unread (Scan.open). cols maps
// the scan's batch columns onto the segment's (Binding.Cols). A skip
// is the Filter's own verdict on the segment, reached without its
// rows, so it can never disagree with the Filter.
type refuter interface {
	refutes(seg *store.Segment, cols []int) bool
}

// refuted reports whether some predicate refutes seg.
func refuted(preds []vexpr, seg *store.Segment, cols []int) bool {
	for _, p := range preds {
		if r, ok := p.(refuter); ok && r.refutes(seg, cols) {
			return true
		}
	}
	return false
}

// zoneOf returns the zone map of the scanned column x is. ok is false
// when x is not a column, or when its zone records no range though a
// row is not NULL (a NaN among its floats): such a zone refutes
// nothing. An all-NULL zone refutes every kernel, which is NULL on a
// NULL operand.
func zoneOf(x vexpr, seg *store.Segment, cols []int) (z store.ZoneMap, ok bool) {
	ref, isCol := x.(*vcolRef)
	if !isCol {
		return z, false
	}
	z = seg.Zones[cols[ref.off]]
	return z, z.AllNull() || !z.Min.IsNull() && !z.Max.IsNull()
}

// refutes: no row of the zone range falls in the interval, or, under
// neg, the whole range does.
func (v *vnumrange) refutes(seg *store.Segment, cols []int) bool {
	z, ok := zoneOf(v.x, seg, cols)
	switch {
	case !ok:
		return false
	case z.AllNull():
		return true
	case v.x.kind() == store.KindInt:
		mn, mx := z.Min.Int64(), z.Max.Int64()
		if v.neg {
			return v.ilo <= mn && mx <= v.ihi
		}
		return v.ilo > v.ihi || mx < v.ilo || mn > v.ihi
	}
	mn, _ := z.Min.AsFloat()
	mx, _ := z.Max.AsFloat()
	if v.neg {
		return v.flo <= mn && mx <= v.fhi
	}
	return v.flo > v.fhi || mx < v.flo || mn > v.fhi
}

// refutes: no string of the zone range compares TRUE with the bound.
func (v *vcmp) refutes(seg *store.Segment, cols []int) bool {
	z, ok := zoneOf(v.x, seg, cols)
	switch {
	case !ok:
		return false
	case z.AllNull():
		return true
	}
	mn, mx := z.Min.Str(), z.Max.Str()
	switch v.op {
	case sql.OpEq:
		return v.c < mn || v.c > mx
	case sql.OpNe:
		return mn == v.c && mx == v.c
	case sql.OpLt:
		return mn >= v.c
	case sql.OpLe:
		return mn > v.c
	case sql.OpGt:
		return mx <= v.c
	case sql.OpGe:
		return mx < v.c
	}
	return false
}

// refutes: no element lies within the zone range (a NULL element makes
// a miss NULL, still non-TRUE). A negated IN refutes nothing. Numeric
// elements are judged as float64s, as an INT x meets a FLOAT element:
// the conversion is monotone, so an element outside the converted
// range equals no row.
func (v *vin) refutes(seg *store.Segment, cols []int) bool {
	z, ok := zoneOf(v.x, seg, cols)
	switch {
	case !ok || v.negated:
		return false
	case z.AllNull():
		return true
	case v.x.kind() == store.KindText:
		mn, mx := z.Min.Str(), z.Max.Str()
		for _, e := range v.strElems {
			if e >= mn && e <= mx {
				return false
			}
		}
		return true
	}
	mn, _ := z.Min.AsFloat()
	mx, _ := z.Max.AsFloat()
	for _, e := range v.intElems {
		if f := float64(e); f >= mn && f <= mx {
			return false
		}
	}
	for _, f := range v.fltElems {
		if f >= mn && f <= mx {
			return false
		}
	}
	return true
}

// refutes: a constant that is not TRUE (a NULL bound folded, as in
// ts > NULL) keeps no row anywhere.
func (v *vconst) refutes(*store.Segment, []int) bool { return !IsTrue(v.val) }

// ---- compiler ----

// ErrUnsupported is wrapped by the error of a statement the planned
// executor does not run, which is any SQL iql.ToSQL does not write:
// a correlated subquery or a FROM list with no equality join (Compile
// reports them), or an expression no kernel compiles (the operator's
// open reports it) — AND or OR inside one expression, arithmetic,
// unary minus over a column, IS [NOT] NULL, EXISTS, BETWEEN other than
// a number between constants, two columns compared outside an
// equi-join, a BOOL or cross-kind comparison, a LIKE pattern or IN
// list that is not constant. The reference executor
// (exec.ReferenceQueryAt) evaluates them all.
var ErrUnsupported = errors.New("plan: not supported by the planned executor")

// unsupported wraps ErrUnsupported with what e asks for.
func unsupported(e sql.Expr, format string, args ...any) error {
	return fmt.Errorf("%w: %s in %s", ErrUnsupported, fmt.Sprintf(format, args...), e)
}

// vfail is an expression the reference executor fails on wherever it
// evaluates it — an unknown or ambiguous column, an unbound parameter,
// an aggregate outside one, a subquery whose value does not bind. It
// fails the same way: its error goes on the first batch with a
// selected row (vbatch.err), for the operator to return.
type vfail struct{ err error }

func (v *vfail) kind() store.Kind { return store.KindNull }

func (v *vfail) eval(b *vbatch) vcol {
	if b.err == nil && b.rows() > 0 {
		b.err = v.err
	}
	return vcol{kind: store.KindNull}
}

// vcompiler compiles sql.Expr into vexprs for one operator instance as
// it opens. resolve is the leaf hook: it maps column references (and,
// for the aggregate output compiler, whole grouped/aggregate
// subexpressions) to columns, failing for a reference it cannot
// resolve; a nil vexpr and nil error let structural compilation
// proceed.
//
// What is constant for the run binds here, the way a parameter does: a
// parameter slot, and a subquery — a scalar subquery becomes its value,
// IN (subquery) a vin over its rows — run once for the run by its own
// plan (Ctx.subquery). Everything else lowers to a kernel or fails
// (see expr).
type vcompiler struct {
	resolve func(e sql.Expr) (vexpr, error)
	ctx     *Ctx
}

// newCompiler builds a compiler over a relational row shape for one
// run.
func newCompiler(rel *Rel, ctx *Ctx) *vcompiler {
	kinds := relKinds(rel)
	c := &vcompiler{ctx: ctx}
	c.resolve = func(e sql.Expr) (vexpr, error) {
		ref, ok := e.(sql.ColumnRef)
		if !ok {
			return nil, nil
		}
		switch off, found, ambiguous := OffsetIn(rel, ref); {
		case found:
			return &vcolRef{off: off, k: kinds[off]}, nil
		case ambiguous:
			return nil, fmt.Errorf("plan: ambiguous column %q", ref.String())
		}
		return nil, fmt.Errorf("plan: unknown column %q", ref.String())
	}
	return c
}

// expr compiles e. An expression no kernel compiles fails with
// ErrUnsupported; one the reference executor fails on wherever it
// evaluates it compiles to a vfail, which fails on the first selected
// row as the reference does on the first row it evaluates.
func (c *vcompiler) expr(e sql.Expr) (vexpr, error) {
	ve, err := c.compile(e)
	if err != nil && !errors.Is(err, ErrUnsupported) {
		return &vfail{err: err}, nil
	}
	return ve, err
}

func numericOrNull(k store.Kind) bool {
	return k == store.KindInt || k == store.KindFloat || k == store.KindNull
}

// compile lowers e to a vexpr (see vcompiler and expr). It compiles
// what iql.ToSQL writes, and no more: a column compared with a
// constant, numeric BETWEEN between constants, NOT over a predicate,
// IN over a constant list or a subquery, LIKE with a constant pattern,
// and a constant, a negated one included. An operator outside that set
// fails before its operands compile, so its error is ErrUnsupported
// whatever they hold.
func (c *vcompiler) compile(e sql.Expr) (vexpr, error) {
	if ve, err := c.resolve(e); ve != nil || err != nil {
		return ve, err
	}
	switch n := e.(type) {
	case sql.Literal:
		return &vconst{val: n.Val}, nil
	case sql.Param:
		if n.Idx < 0 || n.Idx >= len(c.ctx.Params) {
			return nil, fmt.Errorf("plan: unbound parameter $%d", n.Idx+1)
		}
		return &vconst{val: c.ctx.Params[n.Idx]}, nil
	case *sql.BinaryExpr:
		if !n.Op.IsComparison() {
			return nil, unsupported(e, "%s inside an expression", n.Op)
		}
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		if _, ok := l.(*vconst); ok {
			l, r, op = r, l, flipCmp(op)
		}
		k, ok := r.(*vconst)
		lk, rk := l.kind(), r.kind()
		switch {
		case lk == store.KindNull || rk == store.KindNull:
			return allNull(), nil
		case !ok:
			return nil, unsupported(e, "a comparison of two columns")
		case numericOrNull(lk) && numericOrNull(rk):
			lo, hi, neg := cmpBounds(op, k.val)
			return newNumRange(l, lo, hi, neg), nil
		case lk == store.KindText && rk == store.KindText:
			return &vcmp{op: op, x: l, c: k.val.Str()}, nil
		}
		return nil, unsupported(e, "a comparison of %s with %s", lk, rk)
	case *sql.NotExpr:
		x, err := c.compile(n.X)
		switch {
		case err != nil:
			return nil, err
		case x.kind() == store.KindNull:
			return allNull(), nil
		case x.kind() == store.KindBool:
			return &vnot{x: x}, nil
		}
		return nil, unsupported(e, "NOT over %s", x.kind())
	case *sql.NegExpr:
		// SQL has no negative literal: -5 is a negation, folded here
		// as the reference evaluates it.
		x, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		k, ok := x.(*vconst)
		switch {
		case !ok:
			return nil, unsupported(e, "negation of what is not a constant")
		case k.val.Kind() == store.KindInt:
			return &vconst{val: store.Int(-k.val.Int64())}, nil
		case k.val.Kind() == store.KindFloat:
			f, _ := k.val.AsFloat()
			return &vconst{val: store.Float(-f)}, nil
		case k.val.IsNull():
			return allNull(), nil
		}
		return nil, unsupported(e, "negation of %s", k.val.Kind())
	case *sql.BetweenExpr:
		var ops [3]vexpr
		for i, op := range []sql.Expr{n.X, n.Lo, n.Hi} {
			var err error
			if ops[i], err = c.compile(op); err != nil {
				return nil, err
			}
		}
		x := ops[0]
		lo, lok := ops[1].(*vconst)
		hi, hok := ops[2].(*vconst)
		for _, op := range ops {
			if op.kind() == store.KindNull {
				return allNull(), nil
			}
		}
		if !lok || !hok || !numericOrNull(x.kind()) || !numericOrNull(lo.kind()) || !numericOrNull(hi.kind()) {
			return nil, unsupported(e, "BETWEEN other than a number between constants")
		}
		return newNumRange(x, &numBound{v: lo.val}, &numBound{v: hi.val}, n.Negated), nil
	case *sql.InExpr:
		x, err := c.compile(n.X)
		switch {
		case err != nil:
			return nil, err
		case x.kind() == store.KindNull:
			return allNull(), nil // NULL IN (...) reads no element
		case x.kind() == store.KindBool:
			return nil, unsupported(e, "IN over %s", x.kind())
		}
		in := &vin{x: x, negated: n.Negated}
		if n.Sub != nil {
			rows, cols, err := c.ctx.subquery(n.Sub)
			switch {
			case err != nil:
				return nil, err
			case cols != 1:
				return nil, fmt.Errorf("plan: IN subquery must return one column, got %d", cols)
			}
			for _, r := range rows {
				in.add(r[0])
			}
		}
		for _, le := range n.List {
			ve, err := c.compile(le)
			if err != nil {
				return nil, err
			}
			k, ok := ve.(*vconst)
			if !ok {
				return nil, unsupported(e, "an IN list element that is not constant")
			}
			in.add(k.val)
		}
		return in, nil
	case *sql.LikeExpr:
		x, err := c.compile(n.X)
		if err != nil {
			return nil, err
		}
		pe, err := c.compile(n.Pattern)
		if err != nil {
			return nil, err
		}
		pat, ok := pe.(*vconst)
		switch {
		case !ok:
			return nil, unsupported(e, "a LIKE pattern that is not constant")
		case x.kind() == store.KindNull || pat.val.IsNull():
			return allNull(), nil
		case x.kind() != store.KindText || pat.val.Kind() != store.KindText:
			return nil, unsupported(e, "LIKE over %s", x.kind())
		}
		return &vlike{x: x, pattern: pat.val.Str(), negated: n.Negated}, nil
	case *sql.SubqueryExpr:
		rows, cols, err := c.ctx.subquery(n.Sub)
		switch {
		case err != nil:
			return nil, err
		case cols != 1:
			return nil, fmt.Errorf("plan: scalar subquery must return one column, got %d", cols)
		case len(rows) > 1:
			return nil, fmt.Errorf("plan: scalar subquery returned %d rows", len(rows))
		case len(rows) == 0:
			return allNull(), nil
		}
		return &vconst{val: rows[0][0]}, nil
	case *sql.FuncCall:
		return nil, fmt.Errorf("plan: aggregate %s used outside GROUP BY context", n.Name)
	}
	return nil, unsupported(e, "%T", e) // IS NULL, EXISTS
}

// flipCmp turns  c OP x  into  x OP' c.
func flipCmp(op sql.BinOp) sql.BinOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op // Eq/Ne are symmetric
}

// add puts one element into the IN list.
func (v *vin) add(val store.Value) {
	switch val.Kind() {
	case store.KindNull:
		v.sawNull = true
	case store.KindInt:
		v.intElems = append(v.intElems, val.Int64())
	case store.KindFloat:
		f, _ := val.AsFloat()
		v.fltElems = append(v.fltElems, f)
	case store.KindText:
		v.strElems = append(v.strElems, val.Str())
	}
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

// ---- key tables ----

// hashKeys folds the selected rows of the key columns into per-row
// hashes, indexed by physical row.
func hashKeys(keys []vcol, n int, sel []int32, sc *vscratch) []uint64 {
	hs := sc.hashBuf(n)
	for k := range keys {
		hashCol(&keys[k], n, sel, hs, sc)
	}
	return hs
}

// keyTable chains the rows of its key columns by hash (hs, one a row):
// head has a power-of-two number of buckets and holds the first row of
// each bucket's chain plus one (0: empty); next holds, per row, the row
// after it in its chain, the same way. A hash join's build side is one,
// sized to its rows; a keySet grows one.
type keyTable struct {
	keys       []vcol
	hs         []uint64
	head, next []int32
}

// link pushes row r onto the front of its bucket's chain.
func (t *keyTable) link(r int) {
	b := t.hs[r] & uint64(len(t.head)-1)
	t.next[r], t.head[b] = t.head[b], int32(r+1)
}

// find walks the chain of hash h from the row after from (0: from the
// chain's start) and returns the first row, plus one, whose key equals
// row i of keys; 0 when there is none. Walking on from a match finds
// the next one.
func (t *keyTable) find(h uint64, from int32, keys []vcol, i int) int32 {
	e := t.head[h&uint64(len(t.head)-1)]
	if from != 0 {
		e = t.next[from-1]
	}
chain:
	for ; e != 0; e = t.next[e-1] {
		r := int(e - 1)
		if t.hs[r] != h {
			continue
		}
		for k := range keys {
			if !eqVals(&keys[k], i, &t.keys[k], r) {
				continue chain
			}
		}
		return e
	}
	return 0
}

// keySet numbers keys in first-seen order: key id r is row r of the key
// columns it builds as it grows (bufs), and it doubles its buckets
// whenever it holds more keys than buckets, relinking every key from
// its stored hash. GROUP BY, DISTINCT and a DISTINCT aggregate keep
// one, in the scratch of the operator that owns it (vscratch), so its
// vectors keep the capacity an earlier run grew them to.
type keySet struct {
	keyTable
	bufs []colbuf
}

// init empties s for keys of the kinds of protos.
func (s *keySet) init(protos []vcol) {
	s.bufs, s.keys = resize(s.bufs, len(protos)), resize(s.keys, len(protos))
	for k := range protos {
		s.bufs[k].reset(protos[k].kind)
		s.keys[k] = vcol{}
	}
	s.hs, s.next = s.hs[:0], s.next[:0]
	s.head = resize(s.head, 8)
	clear(s.head)
}

// id returns the id of row i of keys, whose hash is h, and whether the
// set met that key just now.
func (s *keySet) id(keys []vcol, i int, h uint64) (int, bool) {
	if e := s.find(h, 0, keys, i); e != 0 {
		return int(e - 1), false
	}
	for k := range keys {
		s.bufs[k].push(&keys[k], i)
		s.keys[k] = s.bufs[k].col()
	}
	r := len(s.hs)
	s.hs, s.next = append(s.hs, h), append(s.next, 0)
	if r == len(s.head) {
		s.head = resize(s.head, 2*r)
		clear(s.head)
		for q := range r {
			s.link(q)
		}
	}
	s.link(r)
	return r, true
}

// bytes is what the set's vectors hold; a nil set holds nothing.
func (s *keySet) bytes() int {
	if s == nil {
		return 0
	}
	n := 8*cap(s.hs) + 4*(cap(s.next)+cap(s.head)) + vcolBytes*cap(s.keys)
	for _, cb := range s.bufs[:cap(s.bufs)] {
		n += cb.bytes()
	}
	return n
}

// forget drops the set's key headers and strings, which may be a
// dictionary's.
func (s *keySet) forget() {
	if s == nil {
		return
	}
	clear(s.keys[:cap(s.keys)])
	for _, cb := range s.bufs[:cap(s.bufs)] {
		clear(cb.strs[:cap(cb.strs)])
	}
}

// ---- column builders ----

// colbuf accumulates rows into a growing typed column — the builder
// behind join builds, keySets and sort buffers, each kept in a scratch
// for the capacity its vectors grew to.
type colbuf struct {
	kind    store.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool
	anyNull bool
}

// reset empties the builder for a column of kind, keeping its vectors'
// capacity; push overwrites what they held.
func (cb *colbuf) reset(kind store.Kind) {
	*cb = colbuf{kind: kind, ints: cb.ints[:0], floats: cb.floats[:0], strs: cb.strs[:0],
		bools: cb.bools[:0], nulls: cb.nulls[:0]}
}

// grow gives the builder room for n more rows of its kind.
func (cb *colbuf) grow(n int) {
	cb.nulls = slices.Grow(cb.nulls, n)
	switch cb.kind {
	case store.KindInt:
		cb.ints = slices.Grow(cb.ints, n)
	case store.KindFloat:
		cb.floats = slices.Grow(cb.floats, n)
	case store.KindText:
		cb.strs = slices.Grow(cb.strs, n)
	case store.KindBool:
		cb.bools = slices.Grow(cb.bools, n)
	}
}

// bytes is what the builder's vectors hold.
func (cb *colbuf) bytes() int {
	return 8*(cap(cb.ints)+cap(cb.floats)) + 16*cap(cb.strs) + cap(cb.bools) + cap(cb.nulls)
}

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

// moveVals copies src[si[k]] to dst[di[k]] for every k; a nil di
// stands for 0, 1, 2, … (a gather).
func moveVals[T any](dst []T, di []int32, src []T, si []int32) {
	if di == nil {
		for k, i := range si {
			dst[k] = src[i]
		}
		return
	}
	for k, i := range di {
		dst[i] = src[si[k]]
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

// gatherCol materializes src rows idxs into a dense column: the
// projection hot path.
func gatherCol(src *vcol, idxs []int32) vcol { return scatterCol(src, len(idxs), nil, idxs, nil) }

// scatterCol materializes an n-row column holding row si[k] of src at
// row di[k] for every k (di nil: at row k), and zero values at rows no
// k writes. With di nil it gathers; with di set it writes a join's
// build columns at the probe rows they matched. Each kind moves through
// a tight preallocated loop, and dictionary text moves its codes and
// shares the dictionary, so strings are only built when a consumer
// finally asks. An encoded int column decodes only the rows it gathers;
// only drained columns, never encoded, scatter. With sc the column is
// written into the operator's scratch, lent with the batch (see
// vbatch); a nil sc allocates.
func scatterCol(src *vcol, n int, di, si []int32, sc *vscratch) vcol {
	out := vcol{kind: src.kind}
	if src.nulls != nil {
		nulls := sc.boolBuf(n)
		moveVals(nulls, di, src.nulls, si)
		if slices.Contains(nulls, true) {
			out.nulls = nulls
		}
	}
	switch src.kind {
	case store.KindInt:
		out.ints = sc.intBuf(n)
		if di != nil {
			clear(out.ints)
		}
		if src.seg != nil {
			src.seg.GatherInts(out.ints, src.off, si)
		} else {
			moveVals(out.ints, di, src.ints, si)
		}
	case store.KindFloat:
		out.floats = sc.floatBuf(n)
		if di != nil {
			clear(out.floats)
		}
		moveVals(out.floats, di, src.floats, si)
	case store.KindText:
		if src.dict != nil {
			out.codes, out.dict = sc.codeBuf(n), src.dict
			moveVals(out.codes, di, src.codes, si)
			break
		}
		out.strs = sc.strBuf(n)
		moveVals(out.strs, di, src.strs, si)
	case store.KindBool:
		out.bools = sc.boolBuf(n)
		moveVals(out.bools, di, src.bools, si)
	case store.KindNull:
		out.nulls = sc.boolBuf(n)
		for i := range out.nulls {
			out.nulls[i] = true
		}
	}
	return out
}
