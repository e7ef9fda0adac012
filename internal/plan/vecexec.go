package plan

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"repro/internal/sql"
	"repro/internal/store"
)

// This file is the operator half of the executor: batch-at-a-time
// scan, filter, project, hash join, aggregate, sort, distinct and
// limit over the typed column vectors of vec.go. Every operator
// opens its inputs batch-at-a-time and compiles its expressions as it
// opens (see vcompiler): subqueries bind to their values for the run,
// and an expression no kernel reproduces fails the open with
// ErrUnsupported.
//
// Every operator preserves the reference semantics' output order — the
// stable order of a row-at-a-time nested evaluation — so a parallel
// plan is row-for-row identical to the serial one.

// viter is a pull iterator over batches; nil signals exhaustion.
// Returned batches always have at least one selected row.
type viter func() (*vbatch, error)

// ---- scans ----

// vopen reads every segment: only a Filter's conjuncts skip one.
func (s *Scan) vopen(ctx *Ctx) (viter, error) { return s.open(ctx, nil) }

// open starts the scan under preds, the compiled conjuncts of the
// Filter above it (Filter.vopen): a segment one of them refutes is
// skipped unread. It carries the cancellation checkpoint: every batch a
// pipeline processes is pulled through a leaf, so a per-batch check
// here covers the whole operator tree.
func (s *Scan) open(ctx *Ctx, preds []vexpr) (viter, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	mr := ctx.part // a worker's leaf reads its morsels
	if mr != nil && mr.node != s {
		mr = nil // a serial scan reads the table
	}
	return ctx.checkpoint(segScanBatches(ctx, tab.Segments(), s.B, mr, preds), nil)
}

// segScanBatches iterates the rows of mr's morsel of the segment layout
// (nil mr: the whole table) as batches, then returns nil; pulled again,
// it reads the morsel mr holds by then, if its worker has claimed
// another. Whole segments that one of preds refutes are dropped
// without touching their data (a segment-wide proof of non-TRUE holds
// for any window of it, so partial morsel overlap skips too). SegC
// counts a segment only in the window that enters it at its first row:
// a scan starts on a segment boundary and morsels tile the table, so a
// run counts each segment once at any degree. Every column is a
// zero-copy view of immutable segment storage: plain payloads and
// dictionary codes as slices, FOR-encoded ints as the encoded column
// plus the window's offset (see vcol). The batch itself is lent: one
// header, one cols slice and one null-mask buffer per column serve
// every batch of the iterator, all of them, and the iterator's own
// state, in the scan's scratch, so the masks a previous question grew
// are reused.
func segScanBatches(ctx *Ctx, ss *store.SegSet, b Binding, mr *morselRun, preds []vexpr) viter {
	scr := ctx.arena.borrow()
	it := own(&scr.scan)
	// Every column is written before a batch is returned, and NullMask
	// overwrites the rows of a mask it reuses.
	*it = segIter{segc: ctx.SegC, ss: ss, cols: b.Cols, mr: mr, preds: preds, hi: ss.N, si: -1,
		out: scr.batch(len(b.Cols)), masks: scr.masks.take(len(b.Cols))}
	if mr != nil {
		it.m, it.pos, it.hi = mr.m, mr.lo, mr.hi
	}
	return it.next
}

// segIter is a scan in progress (segScanBatches): what it reads — the
// segment layout, the columns bound, the morsel its worker claims, the
// Filter's compiled conjuncts — and where it stands: its morsel m, the
// row it reads next, the morsel's end, and the segment holding that row
// (si < 0: not located yet).
type segIter struct {
	segc  *store.SegCounters
	ss    *store.SegSet
	cols  []int
	mr    *morselRun
	preds []vexpr

	m, pos, hi, si, segEnd int
	segCols                []*store.SegCol

	out   *vbatch
	masks [][]bool
}

func (it *segIter) next() (*vbatch, error) {
	mr, ss, out := it.mr, it.ss, it.out
	for {
		if it.pos >= it.hi {
			if mr == nil || mr.m == it.m {
				return nil, nil
			}
			it.m, it.pos, it.hi, it.si = mr.m, mr.lo, mr.hi, -1
		}
		if it.si < 0 || it.pos >= it.segEnd {
			si, off := ss.Locate(it.pos)
			seg := ss.Segs[si]
			it.si, it.segEnd = si, ss.Start[si]+seg.N
			count := it.segc != nil && off == 0
			if refuted(it.preds, seg, it.cols) {
				if count {
					it.segc.Skipped.Add(1)
				}
				it.pos, it.si = it.segEnd, -1
				continue
			}
			it.segCols = seg.Cols()
			if count {
				it.segc.Scanned.Add(1)
			}
		}
		segStart := ss.Start[it.si]
		wlo := it.pos - segStart
		whi := min(it.segEnd, it.hi) - segStart
		if whi-wlo > maxBatch {
			whi = wlo + maxBatch
		}
		out.n, out.sel = whi-wlo, nil
		for c, ci := range it.cols {
			out.cols[c] = segWindowCol(it.segCols[ci], wlo, whi, it.masks[c])
			if out.cols[c].nulls != nil {
				//nlivet:ignore batchretain NullMask wrote the mask into the scan's own buffer, or grew it: no storage view
				it.masks[c] = out.cols[c].nulls
			}
		}
		it.pos = segStart + whi
		return out, nil
	}
}

// segWindowCol views rows [lo, hi) of one segment column as a kernel
// column. Dictionary-encoded text surfaces codes+dict unmaterialized —
// the kernels compare and hash codes directly — and FOR ints surface
// encoded, to be tested in place or decoded by whoever first needs
// the values. The null mask is materialized into mask, grown when the
// window outgrows it.
func segWindowCol(sc *store.SegCol, lo, hi int, mask []bool) vcol {
	vc := vcol{kind: sc.Kind, nulls: sc.NullMask(lo, hi, mask)}
	switch sc.Kind {
	case store.KindInt:
		if sc.Enc == store.SegPlain {
			vc.ints = sc.Ints[lo:hi]
		} else {
			vc.seg, vc.off = sc, lo
		}
	case store.KindFloat:
		vc.floats = sc.Floats[lo:hi]
	case store.KindText:
		if sc.Enc == store.SegDict {
			vc.codes, vc.dict = sc.Codes[lo:hi], sc.Dict
		} else {
			vc.strs = sc.Strs[lo:hi]
		}
	case store.KindBool:
		vc.bools = sc.Bools[lo:hi]
	}
	return vc
}

// ---- filter ----

// vopen keeps the rows every conjunct of the predicate passes. The
// conjuncts narrow the selection one after another, so a conjunct that
// fails on a selected row (vfail) fails only on rows all earlier ones
// kept, as with a short-circuit AND. Their vectors die here; the
// survivor list is lent with the batch, and not at all when every row
// passed. Over a scan the conjuncts compile before it opens, and the
// scan skips a segment one of them refutes from its zone maps.
func (f *Filter) vopen(ctx *Ctx) (viter, error) {
	c := newCompiler(f.In.Rel(), ctx)
	conjs := conjuncts(f.Pred)
	preds := make([]vexpr, len(conjs))
	var err error
	for i, conj := range conjs {
		if preds[i], err = c.expr(conj); err != nil {
			return nil, err
		}
	}
	var in viter
	if s, ok := f.In.(*Scan); ok {
		in, err = s.open(ctx, preds)
	} else {
		in, err = f.In.vopen(ctx)
	}
	if err != nil {
		return nil, err
	}
	sc := ctx.arena.borrow()
	return func() (*vbatch, error) {
	next:
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			sc.reset()
			b.scratch = sc
			own := false // b.sel is this filter's survivor list
			for _, pred := range preds {
				pc := pred.eval(b)
				if b.err != nil {
					return nil, b.err
				}
				// A later conjunct narrows its own survivor list in place.
				keep := b.sel[:0]
				if !own {
					keep = sc.selBuf(b.rows())
				}
				switch {
				case pc.kind != store.KindBool: // an all-NULL predicate keeps nothing
				case b.sel == nil:
					for i, t := range pc.bools[:b.n] {
						if t && !pc.null(i) {
							keep = append(keep, int32(i))
						}
					}
				default:
					for _, i := range b.sel {
						if pc.bools[i] && !pc.null(int(i)) {
							keep = append(keep, i)
						}
					}
				}
				switch len(keep) {
				case 0:
					b.scratch = nil
					continue next
				case b.rows():
					// Every row passed: the selection stands as it is.
				default:
					b.sel, own = keep, true
				}
			}
			b.scratch = nil
			return b, nil
		}
	}, nil
}

// ---- joins ----

// drain pulls in up to its nil and pushes the selected rows of each
// batch into builders, one a column, that sc keeps for their capacity
// (vscratch.bufs), so no batch outlives its pull: the build side of a
// hash join and a Sort's input. kinds are the columns' kinds, nil for
// the first batch's; need marks the columns anything reads (nil: all),
// and the rest stay the zero column, all-NULL. Builders of known kinds
// first get room for est rows, the input's estimate, so a build the
// optimizer sized right grows its vectors once. It returns the
// columns, over the builders' vectors, headers in sc, and the row
// count.
func drain(in viter, kinds []store.Kind, need []bool, est int, sc *vscratch) ([]vcol, int, error) {
	sc.bufs = resize(sc.bufs, len(kinds))
	for c, k := range kinds {
		sc.bufs[c].reset(k)
		if need == nil || need[c] {
			sc.bufs[c].grow(est)
		}
	}
	rows := 0
	for {
		b, err := in()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			break
		}
		if kinds == nil && rows == 0 {
			sc.bufs = resize(sc.bufs, len(b.cols))
			for c := range b.cols {
				sc.bufs[c].reset(b.cols[c].kind)
			}
		}
		for c := range sc.bufs {
			if need == nil || need[c] {
				cb := &sc.bufs[c]
				b.forSel(func(i int) { cb.push(&b.cols[c], i) })
			}
		}
		rows += b.rows()
	}
	cols := sc.hdrs(len(sc.bufs))
	for c := range cols {
		if need == nil || need[c] {
			cols[c] = sc.bufs[c].col()
		}
	}
	return cols, rows, nil
}

// vecBuildTable is a materialized, hashed build side: the right input's
// columns and a keyTable over their keys, a bucket a row. Its chains
// ascend by row, so a probe meets its matches in build-row order. Rows
// with a NULL key are in no chain, so a NULL key on either side never
// joins.
type vecBuildTable struct {
	cols []vcol
	keyTable
}

// vecBuild drains the right input into builders, hashes its keys once,
// and chains the rows into a table sized to them, all of it in one
// scratch. A worker's join on its aggregate's probe spine reads the
// table the aggregate built before it started the workers
// (exchangeRun.buildSpine).
func (j *HashJoin) vecBuild(ctx *Ctx) (*vecBuildTable, error) {
	if bt := ctx.run.built(j); bt != nil {
		return bt, nil
	}
	lw := j.L.Rel().Width
	var need []bool
	if j.live != nil {
		need = slices.Clone(j.live[lw:])
		for _, off := range j.RKey {
			need[off] = true
		}
	}
	in, err := j.R.vopen(ctx)
	if err != nil {
		return nil, err
	}
	sc := ctx.arena.borrow()
	cols, n, err := drain(in, relKinds(j.R.Rel()), need, estRows(j.R), sc)
	if err != nil {
		return nil, err
	}
	buckets := 1
	for buckets < n {
		buckets <<= 1
	}
	keys := sc.hdrs(len(j.RKey))
	for k, off := range j.RKey {
		keys[k] = cols[off]
	}
	// head marks empty buckets with 0, so it starts cleared; next is
	// written for every chained row before it is read.
	head := sc.sels.take(buckets)
	clear(head)
	bt := own(&sc.build)
	*bt = vecBuildTable{cols, keyTable{keys: keys, hs: hashKeys(keys, n, nil, sc),
		head: head, next: sc.sels.take(n)}}
	// Pushing rows last to first leaves every chain ascending.
	for i := n - 1; i >= 0; i-- {
		if !nullKey(keys, i) {
			bt.link(i)
		}
	}
	return bt, nil
}

// nullKey reports whether row i is NULL in any of the key columns.
func nullKey(keys []vcol, i int) bool {
	for k := range keys {
		if keys[k].kind == store.KindNull || keys[k].null(i) {
			return true
		}
	}
	return false
}

// rowBytes is what one row of c costs as a dense column: its value and,
// if it has one, its null mask.
func rowBytes(c *vcol) int {
	b := 0
	switch {
	case c.kind == store.KindInt || c.kind == store.KindFloat:
		b = 8
	case c.kind == store.KindText && c.dict != nil:
		b = 2
	case c.kind == store.KindText:
		b = 16
	case c.kind == store.KindBool:
		b = 1
	}
	if c.nulls != nil || c.kind == store.KindNull {
		b++
	}
	return b
}

// vopen probes the build table with each input batch. When no probe row
// of the batch matched twice, the output is the input batch itself: its
// columns lent on as they came (segment views, encoded ints still
// encoded), the match list as its selection, and only the build columns
// written, each match at its probe row. Otherwise — and wherever writing
// the build columns at every physical row would move more than
// gathering every column at the matched rows — the matches are gathered
// into dense columns. Either way what the probe writes goes into its
// scratch and is lent with the batch (see vbatch), and only the columns
// the operators above read (live) are written at all.
func (j *HashJoin) vopen(ctx *Ctx) (viter, error) {
	bt, err := j.vecBuild(ctx)
	if err != nil {
		return nil, err
	}
	in, err := j.L.vopen(ctx)
	if err != nil {
		return nil, err
	}
	lWidth := j.L.Rel().Width
	live := func(c int) bool { return j.live == nil || j.live[c] }
	rBytes := 0
	for c := range bt.cols {
		if live(lWidth + c) {
			rBytes += rowBytes(&bt.cols[c])
		}
	}
	// Probe-side working state — decoded keys, hashes, the match lists —
	// and the columns written die with each input batch; the key and
	// output headers serve every batch.
	sc := ctx.arena.borrow()
	keys := sc.hdrs(len(j.LKey))
	out := sc.batch(j.rel.Width)
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			sc.reset()
			b.scratch = sc
			for k, off := range j.LKey {
				keys[k] = b.col(off)
			}
			b.scratch = nil
			hs := hashKeys(keys, b.n, b.sel, sc)
			lidx, ridx := sc.selBuf(b.rows()), sc.selBuf(b.rows())
			dup := false
			b.forSel(func(i int) {
				first := len(lidx)
				for e := bt.find(hs[i], 0, keys, i); e != 0; e = bt.find(hs[i], e, keys, i) {
					lidx, ridx = append(lidx, int32(i)), append(ridx, e-1)
				}
				dup = dup || len(lidx) > first+1
			})
			if len(lidx) == 0 {
				continue
			}
			lBytes := 0
			for c := 0; c < lWidth; c++ {
				if live(c) {
					lBytes += rowBytes(&b.cols[c])
				}
			}
			clear(out.cols)
			if !dup && b.n*rBytes <= len(lidx)*(lBytes+rBytes) {
				out.n, out.sel = b.n, lidx
				if b.sel == nil && len(lidx) == b.n {
					out.sel = nil
				}
				copy(out.cols, b.cols[:lWidth])
				for c := range bt.cols {
					if live(lWidth + c) {
						out.cols[lWidth+c] = scatterCol(&bt.cols[c], b.n, lidx, ridx, sc)
					}
				}
				return out, nil
			}
			out.n, out.sel = len(lidx), nil
			for c := 0; c < lWidth; c++ {
				if live(c) {
					out.cols[c] = scatterCol(&b.cols[c], len(lidx), nil, lidx, sc)
				}
			}
			for c := range bt.cols {
				if live(lWidth + c) {
					out.cols[lWidth+c] = scatterCol(&bt.cols[c], len(ridx), nil, ridx, sc)
				}
			}
			return out, nil
		}
	}, nil
}

// ---- project ----

// vopen evaluates the items over each input batch. Over a selection it
// gathers the selected rows into its scratch, lent with the batch (see
// vbatch): the consumer that boxes or builds them makes the one copy.
func (p *Project) vopen(ctx *Ctx) (viter, error) {
	in, err := p.In.vopen(ctx)
	if err != nil {
		return nil, err
	}
	c := newCompiler(p.In.Rel(), ctx)
	exprs := make([]vexpr, len(p.Items)+len(p.SortKeys))
	for x, e := range append(slices.Clip(p.Items), p.SortKeys...) {
		if exprs[x], err = c.expr(e); err != nil {
			return nil, err
		}
	}
	sc := ctx.arena.borrow()
	out := sc.batch(len(exprs))
	return func() (*vbatch, error) {
		b, err := in()
		if err != nil || b == nil {
			return nil, err
		}
		sc.reset()
		out.n, out.sel = b.rows(), nil
		for x, ve := range exprs {
			if ref, ok := ve.(*vcolRef); ok && b.sel != nil {
				// A bare column gathers straight from its stored form: an
				// encoded one decodes only the selected rows.
				out.cols[x] = scatterCol(&b.cols[ref.off], len(b.sel), nil, b.sel, sc)
				continue
			}
			rc := ve.eval(b)
			if b.err != nil {
				return nil, b.err
			}
			if b.sel != nil {
				rc = scatterCol(&rc, len(b.sel), nil, b.sel, sc)
			}
			out.cols[x] = rc
		}
		return out, nil
	}, nil
}

// ---- aggregate ----

// vecAggSlot is one aggregate computation: the function, its compiled
// argument over the input relation, and its result kind. fn is COUNT,
// SUM, AVG, MIN, MAX, or FIRST — the value of the group's first row,
// which is what a bare column outside GROUP BY evaluates to. A distinct
// slot folds each value once per group, deduplicating on Value.Key (so
// NaNs are one value, and -0.0 and 0.0 another).
type vecAggSlot struct {
	fn       string
	star     bool
	distinct bool
	arg      vexpr
	argKind  store.Kind
	outKind  store.Kind
}

// newSlot compiles an aggregate call over the input relation. SUM and
// AVG over a non-numeric argument have NULL results and fail on the
// first non-NULL value (groupTable.add), like the scalar evaluator.
func newSlot(in *vcompiler, fc *sql.FuncCall) (vecAggSlot, error) {
	slot := vecAggSlot{fn: fc.Name, star: fc.Star, distinct: fc.Distinct, outKind: store.KindInt}
	if fc.Star {
		return slot, nil // COUNT(*), the only starred aggregate the parser accepts
	}
	var err error
	if slot.arg, err = in.expr(fc.Arg); err != nil {
		return slot, err
	}
	slot.argKind = slot.arg.kind()
	switch fc.Name {
	case "SUM", "AVG":
		switch {
		case !numericOrNull(slot.argKind):
			slot.outKind = store.KindNull
		case fc.Name == "AVG" && slot.argKind != store.KindNull:
			slot.outKind = store.KindFloat
		default:
			slot.outKind = slot.argKind
		}
	case "MIN", "MAX":
		slot.outKind = slot.argKind
	}
	return slot, nil
}

// vecAggPlan is the decomposed Aggregate: GROUP BY key programs over
// the input, aggregate slots, and the output item/HAVING/sort-key
// programs over the group pseudo-relation whose columns are the keys
// followed by the aggregate results.
type vecAggPlan struct {
	keys   []vexpr
	slots  []vecAggSlot
	items  []vexpr
	having vexpr
	nOut   int // len(Items) + len(SortKeys)
}

// planVecAgg decomposes a into a vectorized aggregation plan for one
// run: every output item reduces to GROUP BY expressions, aggregate
// slots and vector programs over them. A bare column outside GROUP BY
// reads the group's first row, as a FIRST slot.
func planVecAgg(a *Aggregate, ctx *Ctx) (*vecAggPlan, error) {
	rel := a.In.Rel()
	kinds := relKinds(rel)
	in := newCompiler(rel, ctx)
	ap := &vecAggPlan{}
	pseudoIdx := map[string]int{}
	var pseudoKinds []store.Kind
	for i, g := range a.GroupBy {
		ve, err := in.expr(g)
		if err != nil {
			return nil, err
		}
		ap.keys = append(ap.keys, ve)
		pseudoIdx[g.String()] = i
		pseudoKinds = append(pseudoKinds, ve.kind())
	}
	// slot returns the pseudo column of the slot under key, adding it.
	slot := func(key string, mk func() (vecAggSlot, error)) (int, error) {
		if idx, ok := pseudoIdx[key]; ok {
			return idx, nil
		}
		s, err := mk()
		if err != nil {
			return 0, err
		}
		pseudoIdx[key] = len(pseudoKinds)
		pseudoKinds = append(pseudoKinds, s.outKind)
		ap.slots = append(ap.slots, s)
		return len(pseudoKinds) - 1, nil
	}
	ref := func(idx int, err error) (vexpr, error) {
		if err != nil {
			return nil, err
		}
		return &vcolRef{off: idx, k: pseudoKinds[idx]}, nil
	}
	outer := &vcompiler{ctx: ctx}
	outer.resolve = func(e sql.Expr) (vexpr, error) {
		if idx, ok := pseudoIdx[e.String()]; ok {
			return ref(idx, nil)
		}
		switch n := e.(type) {
		case *sql.FuncCall:
			return ref(slot(n.String(), func() (vecAggSlot, error) { return newSlot(in, n) }))
		case sql.ColumnRef:
			off, ok, ambiguous := OffsetIn(rel, n)
			if !ok || ambiguous {
				return in.resolve(e)
			}
			// A bare column outside GROUP BY.
			return ref(slot("FIRST "+strconv.Itoa(off), func() (vecAggSlot, error) {
				return vecAggSlot{fn: "FIRST", arg: &vcolRef{off: off, k: kinds[off]},
					argKind: kinds[off], outKind: kinds[off]}, nil
			}))
		}
		return nil, nil
	}
	for _, e := range append(slices.Clip(a.Items), a.SortKeys...) {
		ve, err := outer.expr(e)
		if err != nil {
			return nil, err
		}
		ap.items = append(ap.items, ve)
	}
	if a.Having != nil {
		var err error
		if ap.having, err = outer.expr(a.Having); err != nil {
			return nil, err
		}
	}
	ap.nOut = len(a.Items) + len(a.SortKeys)
	return ap, nil
}

// aggState holds the running accumulators of one slot, one entry per
// group, in per-slot vectors that grow by appending: a group costs no
// allocation of its own, and a table in a pooled scratch (groupTable)
// appends into the capacity an earlier run left. An INT SUM or AVG
// adds exactly, into a 128-bit two's-complement (hi, lo) pair per
// group; a FLOAT one into the group's exact sum in x. Every state merges exactly, in any order
// (vecAggSlot.merge), so the partials of workers whose morsels
// interleave combine into the serial fold's state.
type aggState struct {
	counts []int64
	lo     []uint64
	hi     []int64
	x      xsums
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	// has: MIN, MAX hold a best value (never NaN); FIRST has seen its
	// row. led records what came first, which the rest cannot change:
	// for FIRST, that the first row's value was NULL; for a float MIN
	// or MAX, that the first non-NULL value was NaN, which wins
	// (store.Compare finds NaN neither below nor above a number).
	has, led []bool
	// firstAt and bestAt, for a float MIN or MAX, are the morsels its
	// first non-NULL value and its best came from, so partials can tell
	// which came first.
	firstAt, bestAt []int32
	seen            keySet // DISTINCT: the (group, value) pairs folded so far
}

// reset empties the state for a new table, to accumulate slot.
func (st *aggState) reset(slot *vecAggSlot) {
	st.counts, st.lo, st.hi = st.counts[:0], st.lo[:0], st.hi[:0]
	st.x = xsums{chunks: st.x.chunks[:0], spare: st.x.spare, spec: st.x.spec[:0]}
	st.ints, st.floats, st.strs, st.bools = st.ints[:0], st.floats[:0], st.strs[:0], st.bools[:0]
	st.has, st.led, st.firstAt, st.bestAt = st.has[:0], st.led[:0], st.firstAt[:0], st.bestAt[:0]
	if slot.distinct {
		st.seen.init([]vcol{{kind: store.KindInt}, {kind: slot.argKind}})
	}
}

// bytes is what the state's vectors hold.
func (st *aggState) bytes() int {
	return 8*(cap(st.counts)+cap(st.lo)+cap(st.hi)+cap(st.x.chunks)+cap(st.x.spare)+cap(st.ints)+cap(st.floats)) +
		16*cap(st.strs) + cap(st.x.spec) + cap(st.bools) + cap(st.has) + cap(st.led) +
		4*(cap(st.firstAt)+cap(st.bestAt)) + st.seen.bytes()
}

// forget drops the state's strings, which may be a dictionary's, and
// its DISTINCT keys.
func (st *aggState) forget() {
	clear(st.strs[:cap(st.strs)])
	st.seen.forget()
}

// errSumOverflow is the error of an INT SUM whose exact value lies
// outside int64.
var errSumOverflow = errors.New("plan: SUM overflows INT")

// grow adds one group to the accumulators the slot's function reads.
func (slot *vecAggSlot) grow(st *aggState) {
	switch slot.fn {
	case "SUM", "AVG":
		switch slot.argKind {
		case store.KindInt:
			st.lo, st.hi = append(st.lo, 0), append(st.hi, 0)
		case store.KindFloat:
			st.x.grow()
		}
		fallthrough
	case "COUNT":
		st.counts = append(st.counts, 0)
		return
	case "FIRST":
		st.led = append(st.led, false)
	default: // MIN, MAX
		if slot.argKind == store.KindFloat {
			st.led, st.firstAt, st.bestAt = append(st.led, false), append(st.firstAt, 0), append(st.bestAt, 0)
		}
	}
	st.has = append(st.has, false)
	switch slot.argKind {
	case store.KindInt:
		st.ints = append(st.ints, 0)
	case store.KindFloat:
		st.floats = append(st.floats, 0)
	case store.KindText:
		st.strs = append(st.strs, "")
	case store.KindBool:
		st.bools = append(st.bools, false)
	}
}

// fold folds the batch's selected rows of the argument column (rows of
// morsel at) into their groups (gids by physical row; nil: the global
// group). A FLOAT SUM or AVG, the one fold that costs more than a
// comparison a row, runs its own loop; every other slot row by row. A
// DISTINCT slot folds a row only where its set of (group, value) pairs
// meets the pair first; the pairs' group column is written into sc.
func (slot *vecAggSlot) fold(st *aggState, gids []int32, arg *vcol, b *vbatch, at int32, sc *vscratch) {
	gid := func(i int) int {
		if gids == nil {
			return 0
		}
		return int(gids[i])
	}
	if slot.distinct {
		pair := []vcol{{kind: store.KindInt, ints: sc.intBuf(b.n)}, *arg}
		b.forSel(func(i int) { pair[0].ints[i] = int64(gid(i)) })
		hs := hashKeys(pair, b.n, b.sel, sc)
		b.forSel(func(i int) {
			if _, isNew := st.seen.id(pair, i, hs[i]); isNew {
				slot.update(st, gid(i), arg, i, at)
			}
		})
		return
	}
	if (slot.fn == "SUM" || slot.fn == "AVG") && arg.kind == store.KindFloat {
		n := 0
		b.forSel(func(i int) {
			if !arg.null(i) {
				g := gid(i)
				st.counts[g]++
				st.x.add(g, arg.floats[i])
				n++
			}
		})
		st.x.added(n)
		return
	}
	b.forSel(func(i int) { slot.update(st, gid(i), arg, i, at) })
}

// update folds value i of the argument column, a row of morsel at,
// into group gid, exactly reproducing the scalar aggregate semantics
// (NULLs skipped, sums exact, MIN/MAX keep the first of equals and a
// leading NaN, FIRST the first row's value even when NULL).
func (slot *vecAggSlot) update(st *aggState, gid int, arg *vcol, i int, at int32) {
	if slot.star {
		st.counts[gid]++
		return
	}
	isNull := arg.kind == store.KindNull || arg.null(i)
	if slot.fn == "FIRST" {
		if st.has[gid] {
			return
		}
		st.has[gid], st.led[gid] = true, isNull
		if !isNull {
			slot.set(st, gid, arg, i)
		}
		return
	}
	if isNull {
		return
	}
	switch slot.fn {
	case "COUNT":
		st.counts[gid]++
	case "SUM", "AVG":
		st.counts[gid]++
		if arg.kind == store.KindInt {
			x := arg.ints[i]
			var carry uint64
			st.lo[gid], carry = bits.Add64(st.lo[gid], uint64(x), 0)
			st.hi[gid] += int64(carry) + x>>63
		} else {
			st.x.add(gid, arg.floats[i])
			st.x.added(1)
		}
	case "MIN", "MAX":
		if slot.argKind == store.KindFloat {
			if !st.has[gid] && !st.led[gid] {
				st.firstAt[gid] = at
			}
			if math.IsNaN(arg.floats[i]) {
				st.led[gid] = st.led[gid] || !st.has[gid]
				return
			}
		}
		slot.extreme(st, gid, arg, i, at)
	}
}

// extreme makes value i of arg (from morsel at), neither NULL nor NaN,
// group gid's MIN or MAX if it is the first or beats the one held;
// equals keep the earlier.
func (slot *vecAggSlot) extreme(st *aggState, gid int, arg *vcol, i int, at int32) {
	min := slot.fn == "MIN"
	better := !st.has[gid]
	switch slot.argKind {
	case store.KindInt:
		// Exact integer comparison, matching the scalar path's int-int
		// store.Compare (a float64 round-trip collapses distinct values
		// beyond 2^53).
		v, cur := arg.ints[i], st.ints[gid]
		better = better || (min && v < cur) || (!min && v > cur)
	case store.KindFloat:
		f, cur := arg.floats[i], st.floats[gid]
		better = better || (min && f < cur) || (!min && f > cur) || (f == cur && at < st.bestAt[gid])
	case store.KindText:
		s, cur := arg.str(i), st.strs[gid]
		better = better || (min && s < cur) || (!min && s > cur)
	case store.KindBool:
		v, cur := arg.bools[i], st.bools[gid]
		better = better || (min && !v && cur) || (!min && v && !cur)
	}
	if better {
		st.has[gid] = true
		slot.set(st, gid, arg, i)
		if slot.argKind == store.KindFloat {
			st.bestAt[gid] = at
		}
	}
}

// set stores value i of the argument column as group gid's MIN, MAX or
// FIRST.
func (slot *vecAggSlot) set(st *aggState, gid int, arg *vcol, i int) {
	switch slot.argKind {
	case store.KindInt:
		st.ints[gid] = arg.ints[i]
	case store.KindFloat:
		st.floats[gid] = arg.floats[i]
	case store.KindText:
		st.strs[gid] = arg.str(i)
	case store.KindBool:
		st.bools[gid] = arg.bools[i]
	}
}

// merge folds group sg of src, the slot's state over other morsels of
// the same input, into group gid of st as if the rows had been folded
// in input order. A group's partials merge in the order of the morsels
// that created them (groupTable.merge), so the first to hold a FIRST
// holds the group's first row, and its FIRST stands; counts and sums
// add, and of two float leads or two equal float bests the one from the
// earlier morsel stands. A DISTINCT slot's partials would count a value
// once per worker; such slots never merge (Parallelize gives their
// aggregate no workers).
func (slot *vecAggSlot) merge(st *aggState, gid int, src *aggState, sg int) {
	switch slot.fn {
	case "COUNT":
		st.counts[gid] += src.counts[sg]
		return
	case "SUM", "AVG":
		st.counts[gid] += src.counts[sg]
		switch slot.argKind {
		case store.KindInt:
			var carry uint64
			st.lo[gid], carry = bits.Add64(st.lo[gid], src.lo[sg], 0)
			st.hi[gid] += src.hi[sg] + int64(carry)
		case store.KindFloat:
			st.x.merge(gid, &src.x, sg)
		}
		return
	}
	held := vcol{kind: slot.argKind, ints: src.ints, floats: src.floats, strs: src.strs, bools: src.bools}
	switch {
	case slot.fn == "FIRST":
		if !st.has[gid] && src.has[sg] {
			st.has[gid], st.led[gid] = true, src.led[sg]
			slot.set(st, gid, &held, sg)
		}
		return
	case slot.argKind == store.KindFloat && (src.has[sg] || src.led[sg]) &&
		(!st.has[gid] && !st.led[gid] || src.firstAt[sg] < st.firstAt[gid]):
		st.led[gid], st.firstAt[gid] = src.led[sg], src.firstAt[sg] // src's non-NULL came first
	}
	if src.has[sg] {
		at := int32(0) // equal values of other kinds are identical
		if slot.argKind == store.KindFloat {
			at = src.bestAt[sg]
		}
		slot.extreme(st, gid, &held, sg, at)
	}
}

// exactFloat rounds the 128-bit sum hi·2^64 + lo to the nearest
// float64.
func exactFloat(hi int64, lo uint64) float64 {
	if hi == int64(lo)>>63 {
		return float64(int64(lo))
	}
	x := new(big.Int).Lsh(big.NewInt(hi), 64)
	f, _ := new(big.Float).SetInt(x.Add(x, new(big.Int).SetUint64(lo))).Float64()
	return f
}

// col freezes the slot's per-group results into an output column. It is
// the state's last read.
func (slot *vecAggSlot) col(st *aggState, n int) (vcol, error) {
	switch slot.fn {
	case "COUNT":
		return vcol{kind: store.KindInt, ints: st.counts[:n]}, nil
	case "SUM", "AVG":
		if slot.outKind == store.KindNull {
			return allNullCol(n), nil
		}
		nulls := countNulls(st.counts[:n])
		if slot.fn == "SUM" && slot.outKind == store.KindInt {
			out := make([]int64, n)
			for i := range out {
				if st.hi[i] != int64(st.lo[i])>>63 {
					return vcol{}, errSumOverflow
				}
				out[i] = int64(st.lo[i])
			}
			return vcol{kind: store.KindInt, ints: out, nulls: nulls}, nil
		}
		out := make([]float64, n)
		for i := range out {
			switch {
			case st.counts[i] == 0:
				continue
			case slot.argKind == store.KindInt:
				out[i] = exactFloat(st.hi[i], st.lo[i])
			default:
				out[i] = st.x.value(i)
			}
			if slot.fn == "AVG" {
				out[i] /= float64(st.counts[i])
			}
		}
		return vcol{kind: store.KindFloat, floats: out, nulls: nulls}, nil
	}
	// MIN, MAX, FIRST
	var nulls []bool
	leadNaN := slot.fn != "FIRST" && slot.argKind == store.KindFloat
	for i := 0; i < n; i++ {
		if leadNaN && st.led[i] {
			st.floats[i] = math.NaN()
			continue
		}
		if !st.has[i] || slot.fn == "FIRST" && st.led[i] {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
		}
	}
	switch slot.argKind {
	case store.KindInt:
		return vcol{kind: store.KindInt, ints: st.ints[:n], nulls: nulls}, nil
	case store.KindFloat:
		return vcol{kind: store.KindFloat, floats: st.floats[:n], nulls: nulls}, nil
	case store.KindText:
		return vcol{kind: store.KindText, strs: st.strs[:n], nulls: nulls}, nil
	case store.KindBool:
		return vcol{kind: store.KindBool, bools: st.bools[:n], nulls: nulls}, nil
	}
	return allNullCol(n), nil
}

// countNulls marks groups with a zero non-NULL count (SUM/AVG of an
// empty set is NULL); nil when every group accumulated something.
func countNulls(counts []int64) []bool {
	var nulls []bool
	for i, c := range counts {
		if c == 0 {
			if nulls == nil {
				nulls = make([]bool, len(counts))
			}
			nulls[i] = true
		}
	}
	return nulls
}

func allNullCol(n int) vcol {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	return vcol{kind: store.KindNull, nulls: nulls}
}

// groupTable is the accumulate half of a vectorized aggregate: the
// groups seen so far — a keySet of their keys (no keys for the global
// group), the morsel each was born in (the global group's: that of its
// first row; none yet, MaxInt32), one aggState per slot — and per-batch
// working state: the morsel being folded and the key and argument
// vectors, evaluated into sc. It is sc's own table (vscratch.table):
// all of it goes back to the pool with sc, and the next run's table
// grows into the vectors this one grew.
type groupTable struct {
	ap     *vecAggPlan
	groups keySet
	born   []int32
	states []aggState

	morsel           int32
	sc               *vscratch
	keyCols, argCols []vcol
}

// newGroupTable empties sc's group table for a run of ap.
func newGroupTable(ap *vecAggPlan, sc *vscratch) *groupTable {
	nk, ns := len(ap.keys), len(ap.slots)
	t := own(&sc.table)
	t.ap, t.sc, t.morsel, t.born = ap, sc, 0, t.born[:0]
	t.states = resize(t.states, ns)
	for s := range t.states {
		t.states[s].reset(&ap.slots[s])
	}
	cols := sc.hdrs(nk + ns)
	t.keyCols, t.argCols = cols[:nk:nk], cols[nk:]
	for k, ve := range ap.keys {
		t.keyCols[k].kind = ve.kind()
	}
	t.groups.init(t.keyCols)
	if nk == 0 {
		// The global group exists even over empty input.
		t.born = append(t.born, math.MaxInt32)
		for s := range t.states {
			ap.slots[s].grow(&t.states[s])
		}
	}
	return t
}

// bytes is what the table's vectors hold; a nil table holds nothing.
func (t *groupTable) bytes() int {
	if t == nil {
		return 0
	}
	n := 4*cap(t.born) + t.groups.bytes() + aggStateBytes*cap(t.states)
	all := t.states[:cap(t.states)]
	for s := range all {
		n += all[s].bytes()
	}
	return n
}

// forget drops what the table references outside its vectors: its
// plan, its strings and its key and argument headers.
func (t *groupTable) forget() {
	if t == nil {
		return
	}
	t.ap, t.sc, t.keyCols, t.argCols = nil, nil, nil, nil
	t.groups.forget()
	all := t.states[:cap(t.states)]
	for s := range all {
		all[s].forget()
	}
}

// group returns the id of the group keyed by row i of keys, whose hash
// is hs[i], appending a new group when the key is unseen.
func (t *groupTable) group(keys []vcol, i int, hs []uint64) int {
	if len(keys) == 0 {
		return 0 // the global group
	}
	gid, isNew := t.groups.id(keys, i, hs[i])
	if isNew {
		t.born = append(t.born, t.morsel)
		for s := range t.states {
			t.ap.slots[s].grow(&t.states[s])
		}
	}
	return gid
}

// add folds one batch into the table.
func (t *groupTable) add(b *vbatch) error {
	t.sc.reset()
	b.scratch = t.sc
	for k, ve := range t.ap.keys {
		t.keyCols[k] = ve.eval(b)
	}
	for s, slot := range t.ap.slots {
		if slot.arg != nil {
			t.argCols[s] = slot.arg.eval(b)
		}
	}
	b.scratch = nil
	if b.err != nil {
		return b.err
	}
	for s, slot := range t.ap.slots {
		if arg := &t.argCols[s]; slot.outKind == store.KindNull && slot.argKind != store.KindNull {
			// SUM/AVG over a non-numeric kind: any value is an error.
			some := false
			b.forSel(func(i int) { some = some || !arg.null(i) })
			if some {
				return fmt.Errorf("plan: %s over non-numeric value %s", slot.fn, slot.argKind)
			}
		}
	}
	var gids []int32 // by physical row; nil: every row is the global group's
	if len(t.keyCols) > 0 {
		hs := hashKeys(t.keyCols, b.n, b.sel, t.sc)
		gids = t.sc.sels.take(b.n)
		b.forSel(func(i int) { gids[i] = int32(t.group(t.keyCols, i, hs)) })
	} else if t.born[0] == math.MaxInt32 && b.rows() > 0 {
		t.born[0] = t.morsel
	}
	for s := range t.ap.slots {
		t.ap.slots[s].fold(&t.states[s], gids, &t.argCols[s], b, t.morsel, t.sc)
	}
	return nil
}

// merge folds the aggregate's workers' tables into t, empty but for the
// global group, in the order of the morsels their groups were born in.
// A worker's morsels ascend, so its groups are in that order already,
// and a group first reaches t from the worker that read its first row:
// t's groups are in the serial first-seen order, and each group's
// partials arrive in the order of their first rows (vecAggSlot.merge).
// A group's key comes with the hash its worker stored.
func (t *groupTable) merge(srcs []*groupTable) {
	next := make([]int, len(srcs))
	for {
		w := -1
		for v, src := range srcs {
			if next[v] < len(src.born) && (w < 0 || src.born[next[v]] < srcs[w].born[next[w]]) {
				w = v
			}
		}
		if w < 0 {
			return
		}
		src, g := srcs[w], next[w]
		next[w]++
		gid := t.group(src.groups.keys, g, src.groups.hs)
		for s := range t.ap.slots {
			t.ap.slots[s].merge(&t.states[s], gid, &src.states[s], g)
		}
	}
}

// vopen folds the input into a group table and finishes it. With
// workers (Parallelize) it folds where the rows are: each worker folds
// every morsel it claims into one table of its own — no batch outlives
// its pull, so a question's bytes follow the groups it returns, not the
// rows it scans — and the tables merge into the serial group order
// (groupTable.merge).
func (a *Aggregate) vopen(ctx *Ctx) (viter, error) {
	r, err := a.start(ctx)
	if err != nil {
		return nil, err
	}
	if r == nil { // serial: the input as it stands
		ap, err := planVecAgg(a, ctx)
		if err != nil {
			return nil, err
		}
		t := newGroupTable(ap, ctx.arena.borrow())
		in, err := a.In.vopen(ctx)
		if err == nil {
			err = t.drain(0, in)
		}
		if err != nil {
			return nil, err
		}
		return t.finish()
	}
	tabs := make([]*groupTable, r.workers)
	err = r.run(func(w int, wctx *Ctx, m int, in viter) error {
		if tabs[w] == nil {
			ap, err := planVecAgg(a, wctx)
			if err != nil {
				return err
			}
			tabs[w] = newGroupTable(ap, wctx.arena.borrow())
		}
		return tabs[w].drain(m, in)
	})
	if err != nil {
		return nil, err
	}
	// A worker that claimed no morsel has no table.
	tabs = slices.DeleteFunc(tabs, func(t *groupTable) bool { return t == nil })
	for _, t := range tabs {
		if len(t.born) > 0 && t.born[0] != math.MaxInt32 {
			FoldingWorkers.Add(1)
		}
	}
	if len(tabs) == 1 {
		return tabs[0].finish()
	}
	t := newGroupTable(tabs[0].ap, ctx.arena.borrow())
	t.merge(tabs)
	return t.finish()
}

// drain folds in, the batches of morsel m, into t up to in's nil.
func (t *groupTable) drain(m int, in viter) error {
	t.morsel = int32(m)
	for {
		b, err := in()
		if err != nil || b == nil {
			return err
		}
		if err := t.add(b); err != nil {
			return err
		}
	}
}

// finish assembles the group pseudo-relation — keys, then aggregate
// results — and evaluates HAVING and the output items over it. Both
// batch headers and HAVING's selection are the table's scratch's.
func (t *groupTable) finish() (viter, error) {
	ap, nk, n := t.ap, len(t.ap.keys), len(t.born)
	t.sc.reset()
	g := t.sc.batch(nk + len(ap.slots))
	g.n = n
	copy(g.cols, t.groups.keys)
	for s := range ap.slots {
		var err error
		if g.cols[nk+s], err = ap.slots[s].col(&t.states[s], n); err != nil {
			return nil, err
		}
	}
	none := func() (*vbatch, error) { return nil, nil }
	if ap.having != nil {
		hc := ap.having.eval(g)
		if g.err != nil {
			return nil, g.err
		}
		sel := t.sc.selBuf(g.n)
		for i := 0; i < g.n; i++ {
			if hc.kind == store.KindBool && !hc.null(i) && hc.bools[i] {
				sel = append(sel, int32(i))
			}
		}
		g.sel = sel
		if len(sel) == 0 {
			return none, nil
		}
	}
	out := t.sc.batch(len(ap.items))
	out.n = g.rows()
	for x, ve := range ap.items {
		rc := ve.eval(g)
		if g.err != nil {
			return nil, g.err
		}
		if g.sel != nil {
			rc = gatherCol(&rc, g.sel)
		}
		out.cols[x] = rc
	}
	if out.n == 0 {
		return none, nil
	}
	done := false
	return func() (*vbatch, error) {
		if done {
			return nil, nil
		}
		done = true
		return out, nil
	}, nil
}

// ---- distinct ----

// vopen keeps the first row of every distinct key (the first d.N
// columns), which a keySet numbers. The rows a batch keeps are gathered
// into its scratch, lent with the batch (see vbatch).
func (d *Distinct) vopen(ctx *Ctx) (viter, error) {
	in, err := d.In.vopen(ctx)
	if err != nil {
		return nil, err
	}
	sc := ctx.arena.borrow()
	seen := own(&sc.set)
	var out *vbatch
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			keys := b.cols[:min(d.N, len(b.cols))]
			if out == nil {
				seen.init(keys)
				out = sc.batch(len(b.cols))
			}
			sc.reset()
			hs := hashKeys(keys, b.n, b.sel, sc)
			kept := sc.selBuf(b.rows())
			b.forSel(func(i int) {
				if _, isNew := seen.id(keys, i, hs[i]); isNew {
					kept = append(kept, int32(i))
				}
			})
			if len(kept) == 0 {
				continue
			}
			out.n, out.sel = len(kept), nil
			for c := range b.cols {
				out.cols[c] = scatterCol(&b.cols[c], len(kept), nil, kept, sc)
			}
			return out, nil
		}
	}, nil
}

// ---- sort ----

// vcolCompare orders two values of same-kind columns with
// store.Compare semantics: NULLs first, then the typed order.
func vcolCompare(a *vcol, i int, b *vcol, j int) int {
	an := a.kind == store.KindNull || a.null(i)
	bn := b.kind == store.KindNull || b.null(j)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch a.kind {
	case store.KindInt:
		x, y := a.intAt(i), b.intAt(j)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case store.KindFloat:
		x, y := a.floats[i], b.floats[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case store.KindText:
		x, y := a.str(i), b.str(j)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case store.KindBool:
		x, y := a.bools[i], b.bools[j]
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

// vopen drains the input into builders in its scratch (drain), orders
// a permutation of their rows, stably, by the sort keys, and gathers
// the first Keep columns through it into its scratch, lent as one batch.
func (s *Sort) vopen(ctx *Ctx) (viter, error) {
	in, err := s.In.vopen(ctx)
	if err != nil {
		return nil, err
	}
	sc := ctx.arena.borrow()
	cols, total, err := drain(in, nil, nil, 0, sc)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return func() (*vbatch, error) { return nil, nil }, nil
	}
	perm := sc.sels.take(total)
	for i := range perm {
		perm[i] = int32(i)
	}
	keep := s.Keep
	sort.SliceStable(perm, func(x, y int) bool {
		a, b := int(perm[x]), int(perm[y])
		for k := range s.Keys {
			kc := &cols[keep+k]
			c := vcolCompare(kc, a, kc, b)
			if c == 0 {
				continue
			}
			if s.Keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := sc.batch(keep)
	out.n = total
	for c := range keep {
		out.cols[c] = scatterCol(&cols[c], total, nil, perm, sc)
	}
	done := false
	return func() (*vbatch, error) {
		if done {
			return nil, nil
		}
		done = true
		return out, nil
	}, nil
}

// ---- limit ----

func (l *Limit) vopen(ctx *Ctx) (viter, error) {
	if l.N <= 0 {
		return func() (*vbatch, error) { return nil, nil }, nil
	}
	in, err := l.In.vopen(ctx)
	if err != nil {
		return nil, err
	}
	left := l.N
	return func() (*vbatch, error) {
		if left <= 0 {
			return nil, nil
		}
		b, err := in()
		if err != nil || b == nil {
			return nil, err
		}
		r := b.rows()
		if r <= left {
			left -= r
			return b, nil
		}
		// Truncate the final batch to the remaining budget.
		if b.sel != nil {
			b.sel = b.sel[:left]
		} else {
			sel := make([]int32, left)
			for i := range sel {
				sel[i] = int32(i)
			}
			b.sel = sel
		}
		left = 0
		return b, nil
	}, nil
}
