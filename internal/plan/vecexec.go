package plan

import (
	"sort"

	"repro/internal/sql"
	"repro/internal/store"
)

// This file is the operator half of the vectorized executor:
// batch-at-a-time scan, filter, project, hash join, aggregate, sort,
// distinct and limit over the typed column vectors of vec.go, plus the
// adapters that let vectorized and row-at-a-time operators nest freely
// in either direction (rowSource wraps a row subtree into batches,
// vecIter wraps a batch subtree into a row iterator).
//
// Every operator preserves the row path's output order exactly, so a
// vectorized plan is row-for-row identical to its serial row-at-a-time
// execution — the property the differential tests pin.

// viter is a pull iterator over batches; nil signals exhaustion.
// Returned batches always have at least one selected row.
type viter func() (*vbatch, error)

// fullyVec reports whether every operator in the tree vectorizes —
// the "vectorized pipeline chosen end-to-end" property Plan.Vec
// records. Pipeline operators without expressions of their own
// (Sort/Distinct/Limit/Exchange) vectorize with their inputs.
func fullyVec(root Node) bool {
	all := true
	Walk(root, func(n Node) {
		switch n.(type) {
		case *Distinct, *Sort, *Limit, *Exchange, *PartitionWise:
		default:
			if !staticVec(n) {
				all = false
			}
		}
	})
	return all
}

// staticVec reports whether node n executes batch-at-a-time: its own
// expressions must compile to vector programs. Operators above the
// projection boundary (Sort/Distinct/Limit) vectorize exactly when
// their input does — wrapping a row-mode projection in batches buys
// nothing. A node whose expressions decline (subqueries, correlation,
// cross-kind comparisons) falls back to the row iterator while its
// neighbors stay vectorized.
func staticVec(n Node) bool {
	switch t := n.(type) {
	case *Scan, *IndexScan:
		return true
	case *Filter:
		return compilesOver(t.In.Rel(), t.Pred)
	case *HashJoin:
		return true
	case *CrossJoin:
		return false
	case *Project:
		exprs := append(append([]sql.Expr{}, t.Items...), t.SortKeys...)
		return compilesOver(t.In.Rel(), exprs...)
	case *Aggregate:
		_, ok := planVecAgg(t, nil, true)
		return ok
	case *Distinct:
		return staticVec(t.In)
	case *Sort:
		return staticVec(t.In)
	case *Limit:
		return staticVec(t.In)
	case *Exchange:
		return staticVec(t.In)
	case *PartitionWise:
		return staticVec(t.In)
	}
	return false
}

// vecOpen starts the batch iterator of a vectorizable node. Callers
// must have checked staticVec(n).
func vecOpen(n Node, ctx *Ctx) (viter, error) {
	switch t := n.(type) {
	case *Scan:
		// Leaf scans carry the cancellation checkpoint: every batch a
		// vectorized pipeline processes is pulled through a leaf, so a
		// per-batch check here covers the whole operator tree.
		it, err := t.vopen(ctx)
		if err != nil {
			return nil, err
		}
		return ctxViter(ctx, it), nil
	case *IndexScan:
		it, err := t.vopen(ctx)
		if err != nil {
			return nil, err
		}
		return ctxViter(ctx, it), nil
	case *Filter:
		return t.vopen(ctx)
	case *HashJoin:
		return t.vopen(ctx)
	case *Project:
		return t.vopen(ctx)
	case *Aggregate:
		return t.vopen(ctx)
	case *Distinct:
		return t.vopen(ctx)
	case *Sort:
		return t.vopen(ctx)
	case *Limit:
		return t.vopen(ctx)
	case *Exchange:
		return t.vopen(ctx)
	case *PartitionWise:
		return t.vopen(ctx)
	}
	return nil, errUnknownTable("<not vectorizable>")
}

// vecChild opens a relational child: vectorized when it can be,
// adapted from its row iterator otherwise (node-by-node fallback).
func vecChild(n Node, ctx *Ctx) (viter, error) {
	if staticVec(n) {
		return vecOpen(n, ctx)
	}
	return rowSource(n, ctx)
}

// rowSource adapts a row-at-a-time subtree into batches. Only
// relational nodes are adapted — their column kinds are known from the
// schema bindings.
func rowSource(n Node, ctx *Ctx) (viter, error) {
	it, err := n.open(ctx)
	if err != nil {
		return nil, err
	}
	kinds := relKinds(n.Rel())
	done := false
	return func() (*vbatch, error) {
		if done {
			return nil, nil
		}
		bufs := make([]*colbuf, len(kinds))
		for c, k := range kinds {
			bufs[c] = newColbuf(k)
		}
		rows := 0
		for rows < maxBatch {
			r, err := it()
			if err != nil {
				return nil, err
			}
			if r == nil {
				done = true
				break
			}
			for c := range bufs {
				bufs[c].pushValue(r[c])
			}
			rows++
		}
		if rows == 0 {
			return nil, nil
		}
		b := &vbatch{n: rows, cols: make([]vcol, len(bufs))}
		for c := range bufs {
			b.cols[c] = bufs[c].col()
		}
		return b, nil
	}, nil
}

// vecIter adapts a batch iterator into a row iterator — the bridge a
// row-mode parent uses over a vectorized subtree.
func vecIter(op viter) iter {
	var b *vbatch
	pos := 0
	return func() (store.Row, error) {
		for {
			if b == nil {
				nb, err := op()
				if err != nil {
					return nil, err
				}
				if nb == nil {
					return nil, nil
				}
				b, pos = nb, 0
			}
			if pos >= b.rows() {
				b = nil
				continue
			}
			i := pos
			if b.sel != nil {
				i = int(b.sel[pos])
			}
			pos++
			row := make(store.Row, len(b.cols))
			for c := range b.cols {
				row[c] = b.cols[c].value(i)
			}
			return row, nil
		}
	}
}

// ---- scans ----

func (s *Scan) vopen(ctx *Ctx) (viter, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	// A partition-wise worker reads exactly its claimed partition's
	// stream: the partition view's own segment set.
	if pw := ctx.pw; pw != nil {
		if _, ok := pw.scans[s]; ok {
			tab = tab.Part(pw.pi)
			if ctx.PartC != nil {
				ctx.PartC.Scanned.Add(1)
			}
		}
	}
	// Skip predicates re-bind against this run's parameters, so a
	// prepared template skips per its bound constants.
	preds, skipAll := bindZonePreds(s.Skips, ctx.Params)
	ss := tab.Segments()
	if mr := ctx.part; mr != nil && mr.node == Node(s) {
		if mr.ids != nil {
			return segGatherBatches(ctx, ss, s.B, mr.ids), nil
		}
		return segScanBatches(ctx, ss, s.B, mr.lo, mr.hi, preds, skipAll), nil
	}
	// Partition boundaries are segment boundaries in the merged set, so
	// a pruned partition's segments are never located, faulted or
	// decoded — pruning happens strictly before any segment I/O.
	if ranges := s.prunePartsBound(ctx, tab, preds, skipAll); ranges != nil {
		its := make([]viter, len(ranges))
		for i, r := range ranges {
			its[i] = segScanBatches(ctx, ss, s.B, r[0], r[1], preds, skipAll)
		}
		return chainViters(its), nil
	}
	return segScanBatches(ctx, ss, s.B, 0, ss.N, preds, skipAll), nil
}

func (s *IndexScan) vopen(ctx *Ctx) (viter, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	ss := tab.Segments()
	if mr := ctx.part; mr != nil && mr.node == Node(s) {
		return segGatherBatches(ctx, ss, s.B, mr.ids), nil
	}
	ids, err := s.lookupIDs(ctx)
	if err != nil {
		return nil, err
	}
	return segGatherBatches(ctx, ss, s.B, ids), nil
}

// segFault resolves a segment's decoded columns through Segment.Cols,
// faulting an evicted payload in from the segment cache. The run's
// Done channel covers the fault-in wait, so a canceled request
// abandons the disk read queue like any other checkpoint — the
// cancellation cause wins over the cache's sentinel error.
func segFault(ctx *Ctx, seg *store.Segment) ([]*store.SegCol, error) {
	cols, err := seg.Cols(ctx.Done)
	if err != nil {
		if cerr := ctx.canceled(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return cols, nil
}

// segScanBatches iterates rows [lo, hi) of the segment layout as
// batches. Whole segments whose zone maps refute a skip predicate are
// dropped without touching their data (a segment-wide proof of
// non-TRUE holds for any window of it, so partial morsel overlap skips
// too). Every column is a zero-copy view of immutable segment storage:
// plain payloads and dictionary codes as slices, RLE- and FOR-encoded
// ints as the encoded column plus the window's offset (see vcol). The
// batch itself is lent: one header, one cols slice and one null-mask
// buffer per column serve every batch of the iterator.
func segScanBatches(ctx *Ctx, ss *store.SegSet, b Binding, lo, hi int, preds []boundZone, skipAll bool) viter {
	sc := ctx.SegC
	pos := lo
	si := -1
	segEnd := 0
	var segCols []*store.SegCol
	out := &vbatch{cols: make([]vcol, len(b.Cols))}
	masks := make([][]bool, len(b.Cols))
	return func() (*vbatch, error) {
		for pos < hi {
			if si < 0 || pos >= segEnd {
				nsi, _ := ss.Locate(pos)
				si = nsi
				seg := ss.Segs[si]
				segEnd = ss.Start[si] + seg.N
				// The skip decision reads only the always-resident zone
				// maps; an evicted segment that skips is pruned without
				// faulting its payload back in.
				if skipAll || skipSegment(seg, preds) {
					if sc != nil {
						sc.Skipped.Add(1)
					}
					pos = segEnd
					si = -1
					continue
				}
				var err error
				if segCols, err = segFault(ctx, seg); err != nil {
					return nil, err
				}
				if sc != nil {
					sc.Scanned.Add(1)
				}
			}
			segStart := ss.Start[si]
			wlo := pos - segStart
			whi := min(segEnd, hi) - segStart
			if whi-wlo > maxBatch {
				whi = wlo + maxBatch
			}
			out.n, out.sel = whi-wlo, nil
			for c, ci := range b.Cols {
				out.cols[c] = segWindowCol(segCols[ci], wlo, whi, masks[c])
				if out.cols[c].nulls != nil {
					masks[c] = out.cols[c].nulls
				}
			}
			pos = segStart + whi
			return out, nil
		}
		return nil, nil
	}
}

// segWindowCol views rows [lo, hi) of one segment column as a kernel
// column. Dictionary-encoded text surfaces codes+dict unmaterialized —
// the kernels compare and hash codes directly — and RLE/FOR ints
// surface encoded, to be tested in place or decoded by whoever first
// needs the values. The null mask is materialized into mask, grown when
// the window outgrows it.
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

// segGatherBatches materializes the given row ids from the segment
// layout into dense batches — the index-scan and morsel-over-ids form.
func segGatherBatches(ctx *Ctx, ss *store.SegSet, b Binding, ids []int) viter {
	pos := 0
	// Gathers hop between segments by row id; memoize the last faulted
	// segment so runs of ids inside one segment fault it once.
	lastSi := -1
	var lastCols []*store.SegCol
	return func() (*vbatch, error) {
		if pos >= len(ids) {
			return nil, nil
		}
		end := min(pos+maxBatch, len(ids))
		chunk := ids[pos:end]
		out := &vbatch{n: len(chunk), cols: make([]vcol, len(b.Cols))}
		for c, ci := range b.Cols {
			cb := newColbuf(store.KindOfColType(b.Meta.Columns[ci].Type))
			for _, id := range chunk {
				si, off := ss.Locate(id)
				if si != lastSi {
					cols, err := segFault(ctx, ss.Segs[si])
					if err != nil {
						return nil, err
					}
					lastSi, lastCols = si, cols
				}
				cb.pushSegCol(lastCols[ci], off)
			}
			out.cols[c] = cb.col()
		}
		pos = end
		return out, nil
	}
}

// pushSegCol appends segment-local row i of a segment column, decoding
// through its encoding.
func (cb *colbuf) pushSegCol(sc *store.SegCol, i int) {
	isNull := sc.IsNull(i)
	cb.nulls = append(cb.nulls, isNull)
	if isNull {
		cb.anyNull = true
	}
	switch cb.kind {
	case store.KindInt:
		var v int64
		if !isNull {
			v = sc.IntAt(i)
		}
		cb.ints = append(cb.ints, v)
	case store.KindFloat:
		var v float64
		if !isNull {
			v = sc.Floats[i]
		}
		cb.floats = append(cb.floats, v)
	case store.KindText:
		var v string
		if !isNull {
			v = sc.StrAt(i)
		}
		cb.strs = append(cb.strs, v)
	case store.KindBool:
		var v bool
		if !isNull {
			v = sc.Bools[i]
		}
		cb.bools = append(cb.bools, v)
	}
}

// ---- filter ----

func (f *Filter) vopen(ctx *Ctx) (viter, error) {
	in, err := vecChild(f.In, ctx)
	if err != nil {
		return nil, err
	}
	pred, ok := compileRelWith(f.In.Rel(), ctx.Params).compile(f.Pred)
	if !ok {
		return nil, errUnknownTable("<filter predicate not vectorizable>")
	}
	// The predicate's vectors die here; the survivor list is lent with
	// the batch, and not at all when every row passed.
	sc := ctx.takeScratch()
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			sc.reset()
			b.scratch = sc
			pc := pred.eval(b)
			b.scratch = nil
			if pc.kind != store.KindBool {
				continue // an all-NULL predicate keeps nothing
			}
			keep := sc.selBuf(b.rows())
			if b.sel == nil {
				for i, t := range pc.bools[:b.n] {
					if t && !pc.null(i) {
						keep = append(keep, int32(i))
					}
				}
			} else {
				for _, i := range b.sel {
					if pc.bools[i] && !pc.null(int(i)) {
						keep = append(keep, i)
					}
				}
			}
			switch len(keep) {
			case 0:
				continue
			case b.rows():
				// Every row passed: the selection stands as it is.
			default:
				b.sel = keep
			}
			return b, nil
		}
	}, nil
}

// ---- hash join ----

// vecBuildTable is a materialized, hashed build side: the right
// input's columns plus a typed hash table from 64-bit key hash to
// build row ids (verified by value on probe).
type vecBuildTable struct {
	cols  []vcol
	table map[uint64][]int32
}

func (j *HashJoin) vecBuild(ctx *Ctx) (*vecBuildTable, error) {
	if ctx.shared == nil {
		return j.vecBuildLocal(ctx)
	}
	e := ctx.shared.vecEntry(j)
	e.once.Do(func() { e.build, e.err = j.vecBuildLocal(ctx) })
	return e.build, e.err
}

func (j *HashJoin) vecBuildLocal(ctx *Ctx) (*vecBuildTable, error) {
	in, err := vecChild(j.R, ctx)
	if err != nil {
		return nil, err
	}
	kinds := relKinds(j.R.Rel())
	bufs := make([]*colbuf, len(kinds))
	for c, k := range kinds {
		bufs[c] = newColbuf(k)
	}
	for {
		b, err := in()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		b.forSel(func(i int) {
			for c := range bufs {
				bufs[c].push(&b.cols[c], i)
			}
		})
	}
	bt := &vecBuildTable{cols: make([]vcol, len(bufs)), table: map[uint64][]int32{}}
	for c := range bufs {
		bt.cols[c] = bufs[c].col()
	}
	n := 0
	if len(bufs) > 0 {
		n = bufs[0].len()
	}
	hs := make([]uint64, n)
	for _, off := range j.RKey {
		hashCol(&bt.cols[off], n, nil, hs, nil)
	}
	for i := 0; i < n; i++ {
		nullKey := false
		for _, off := range j.RKey {
			if bt.cols[off].kind == store.KindNull || bt.cols[off].null(i) {
				nullKey = true
				break
			}
		}
		if nullKey {
			continue // NULL keys never join
		}
		bt.table[hs[i]] = append(bt.table[hs[i]], int32(i))
	}
	return bt, nil
}

func (j *HashJoin) vopen(ctx *Ctx) (viter, error) {
	bt, err := j.vecBuild(ctx)
	if err != nil {
		return nil, err
	}
	in, err := vecChild(j.L, ctx)
	if err != nil {
		return nil, err
	}
	lWidth := j.L.Rel().Width
	// Probe-side working state dies with each input batch; only the
	// gathered output columns leave.
	sc := ctx.takeScratch()
	keys := make([]vcol, len(j.LKey))
	var lidx, ridx []int32
	out := &vbatch{cols: make([]vcol, j.rel.Width)}
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
			hs := sc.hashBuf(b.n)
			for k := range keys {
				hashCol(&keys[k], b.n, b.sel, hs, sc)
			}
			lidx, ridx = lidx[:0], ridx[:0]
			b.forSel(func(i int) {
				for k := range keys {
					if keys[k].kind == store.KindNull || keys[k].null(i) {
						return
					}
				}
				for _, cand := range bt.table[hs[i]] {
					match := true
					for k := range keys {
						if !eqVals(&keys[k], i, &bt.cols[j.RKey[k]], int(cand)) {
							match = false
							break
						}
					}
					if match {
						lidx = append(lidx, int32(i))
						ridx = append(ridx, cand)
					}
				}
			})
			if len(lidx) == 0 {
				continue
			}
			out.n, out.sel = len(lidx), nil
			for c := 0; c < lWidth; c++ {
				out.cols[c] = gatherCol(&b.cols[c], lidx)
			}
			for c := lWidth; c < j.rel.Width; c++ {
				out.cols[c] = gatherCol(&bt.cols[c-lWidth], ridx)
			}
			return out, nil
		}
	}, nil
}

// ---- project ----

func (p *Project) vopen(ctx *Ctx) (viter, error) {
	in, err := vecChild(p.In, ctx)
	if err != nil {
		return nil, err
	}
	c := compileRelWith(p.In.Rel(), ctx.Params)
	exprs := make([]vexpr, 0, len(p.Items)+len(p.SortKeys))
	for _, e := range append(append([]sql.Expr{}, p.Items...), p.SortKeys...) {
		ve, ok := c.compile(e)
		if !ok {
			return nil, errUnknownTable("<projection not vectorizable>")
		}
		exprs = append(exprs, ve)
	}
	out := &vbatch{cols: make([]vcol, len(exprs))}
	return func() (*vbatch, error) {
		b, err := in()
		if err != nil || b == nil {
			return nil, err
		}
		out.n, out.sel = b.rows(), nil
		for x, ve := range exprs {
			if ref, ok := ve.(*vcolRef); ok && b.sel != nil {
				// A bare column gathers straight from its stored form: an
				// encoded one decodes only the selected rows.
				out.cols[x] = gatherCol(&b.cols[ref.off], b.sel)
				continue
			}
			rc := ve.eval(b)
			if b.sel != nil {
				rc = gatherCol(&rc, b.sel)
			}
			out.cols[x] = rc
		}
		return out, nil
	}, nil
}

// ---- aggregate ----

// vecAggSlot is one aggregate computation: the function, its compiled
// argument over the input relation, and its result kind.
type vecAggSlot struct {
	fn      string
	star    bool
	arg     vexpr
	argKind store.Kind
	outKind store.Kind
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

// planVecAgg decomposes a into a vectorized aggregation plan, or
// reports it non-vectorizable: every output item must reduce to GROUP
// BY expressions, standard non-DISTINCT aggregates over vectorizable
// arguments, and vectorizable combinations thereof. params is the
// run's parameter vector; structural marks the vectorizability check
// (parameters then compile against kind surrogates, see vcompiler).
func planVecAgg(a *Aggregate, params []store.Value, structural bool) (*vecAggPlan, bool) {
	rel := a.In.Rel()
	in := compileRelWith(rel, params)
	in.structural = structural
	ap := &vecAggPlan{}
	pseudoIdx := map[string]int{}
	var pseudoKinds []store.Kind
	for i, g := range a.GroupBy {
		ve, ok := in.compile(g)
		if !ok {
			return nil, false
		}
		ap.keys = append(ap.keys, ve)
		pseudoIdx[g.String()] = i
		pseudoKinds = append(pseudoKinds, ve.kind())
	}
	makeSlot := func(fc *sql.FuncCall) (vecAggSlot, bool) {
		if fc.Distinct {
			return vecAggSlot{}, false
		}
		slot := vecAggSlot{fn: fc.Name, star: fc.Star}
		if fc.Star {
			if fc.Name != "COUNT" {
				return vecAggSlot{}, false
			}
			slot.outKind = store.KindInt
			return slot, true
		}
		arg, ok := in.compile(fc.Arg)
		if !ok {
			return vecAggSlot{}, false
		}
		slot.arg, slot.argKind = arg, arg.kind()
		switch fc.Name {
		case "COUNT":
			slot.outKind = store.KindInt
		case "SUM":
			if !numericOrNull(slot.argKind) {
				return vecAggSlot{}, false
			}
			slot.outKind = slot.argKind
		case "AVG":
			if !numericOrNull(slot.argKind) {
				return vecAggSlot{}, false
			}
			slot.outKind = store.KindFloat
			if slot.argKind == store.KindNull {
				slot.outKind = store.KindNull
			}
		case "MIN", "MAX":
			slot.outKind = slot.argKind
		default:
			return vecAggSlot{}, false
		}
		return slot, true
	}
	outer := &vcompiler{params: params, structural: structural}
	outer.resolve = func(e sql.Expr) (vexpr, bool) {
		if idx, ok := pseudoIdx[e.String()]; ok {
			return &vcolRef{off: idx, k: pseudoKinds[idx]}, true
		}
		if fc, ok := e.(*sql.FuncCall); ok {
			slot, ok := makeSlot(fc)
			if !ok {
				return nil, true
			}
			idx := len(pseudoKinds)
			pseudoIdx[fc.String()] = idx
			pseudoKinds = append(pseudoKinds, slot.outKind)
			ap.slots = append(ap.slots, slot)
			return &vcolRef{off: idx, k: slot.outKind}, true
		}
		if _, ok := e.(sql.ColumnRef); ok {
			// A bare column that is not a GROUP BY key: the row path
			// evaluates it on the group's representative row.
			return nil, true
		}
		return nil, false
	}
	for _, e := range append(append([]sql.Expr{}, a.Items...), a.SortKeys...) {
		ve, ok := outer.compile(e)
		if !ok {
			return nil, false
		}
		ap.items = append(ap.items, ve)
	}
	if a.Having != nil {
		ve, ok := outer.compile(a.Having)
		if !ok {
			return nil, false
		}
		ap.having = ve
	}
	ap.nOut = len(a.Items) + len(a.SortKeys)
	return ap, true
}

// aggState holds the running accumulators of one slot, one entry per
// group.
type aggState struct {
	counts []int64
	sums   []float64
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	has    []bool
}

// grow adds one group to the accumulators the slot's function reads.
func (slot *vecAggSlot) grow(st *aggState) {
	switch slot.fn {
	case "SUM", "AVG":
		st.sums = append(st.sums, 0)
		fallthrough
	case "COUNT":
		st.counts = append(st.counts, 0)
	default: // MIN, MAX
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
}

// update folds value i of the argument column into group gid, exactly
// reproducing the scalar aggregate semantics (NULLs skipped, SUM/AVG
// accumulate in float64, MIN/MAX keep the first of equals).
func (slot *vecAggSlot) update(st *aggState, gid int, arg *vcol, i int) {
	if slot.star {
		st.counts[gid]++
		return
	}
	if arg.kind == store.KindNull || arg.null(i) {
		return
	}
	switch slot.fn {
	case "COUNT":
		st.counts[gid]++
	case "SUM", "AVG":
		st.counts[gid]++
		if arg.kind == store.KindInt {
			st.sums[gid] += float64(arg.ints[i])
		} else {
			st.sums[gid] += arg.floats[i]
		}
	case "MIN", "MAX":
		min := slot.fn == "MIN"
		switch slot.argKind {
		case store.KindInt:
			// Exact integer comparison, matching the row path's
			// int-int store.Compare (a float64 round-trip collapses
			// distinct values beyond 2^53).
			v := arg.ints[i]
			cur := st.ints[gid]
			if !st.has[gid] || (min && v < cur) || (!min && v > cur) {
				st.ints[gid] = v
				st.has[gid] = true
			}
		case store.KindFloat:
			f := arg.floats[i]
			cur := st.floats[gid]
			if !st.has[gid] || (min && f < cur) || (!min && f > cur) {
				st.floats[gid] = f
				st.has[gid] = true
			}
		case store.KindText:
			s := arg.str(i)
			if !st.has[gid] || (min && s < st.strs[gid]) || (!min && s > st.strs[gid]) {
				st.strs[gid] = s
				st.has[gid] = true
			}
		case store.KindBool:
			v := arg.bools[i]
			cur := st.bools[gid]
			if !st.has[gid] || (min && !v && cur) || (!min && v && !cur) {
				st.bools[gid] = v
				st.has[gid] = true
			}
		}
	}
}

// col freezes the slot's per-group results into an output column.
func (slot *vecAggSlot) col(st *aggState, n int) vcol {
	switch slot.fn {
	case "COUNT":
		return vcol{kind: store.KindInt, ints: st.counts[:n]}
	case "SUM":
		nulls := countNulls(st.counts[:n])
		if slot.outKind == store.KindInt {
			out := make([]int64, n)
			for i := 0; i < n; i++ {
				out[i] = int64(st.sums[i])
			}
			return vcol{kind: store.KindInt, ints: out, nulls: nulls}
		}
		if slot.outKind == store.KindNull {
			return allNullCol(n)
		}
		return vcol{kind: store.KindFloat, floats: st.sums[:n], nulls: nulls}
	case "AVG":
		if slot.outKind == store.KindNull {
			return allNullCol(n)
		}
		nulls := countNulls(st.counts[:n])
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			if st.counts[i] > 0 {
				out[i] = st.sums[i] / float64(st.counts[i])
			}
		}
		return vcol{kind: store.KindFloat, floats: out, nulls: nulls}
	default: // MIN, MAX
		var nulls []bool
		for i := 0; i < n; i++ {
			if !st.has[i] {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
		}
		switch slot.argKind {
		case store.KindInt:
			return vcol{kind: store.KindInt, ints: st.ints[:n], nulls: nulls}
		case store.KindFloat:
			return vcol{kind: store.KindFloat, floats: st.floats[:n], nulls: nulls}
		case store.KindText:
			return vcol{kind: store.KindText, strs: st.strs[:n], nulls: nulls}
		case store.KindBool:
			return vcol{kind: store.KindBool, bools: st.bools[:n], nulls: nulls}
		}
		return allNullCol(n)
	}
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

// mergesExactly reports whether per-morsel partial states of every
// slot merge into exactly the serial result: COUNTs add, and a MIN/MAX
// over ints, text or bools picks among identical equals. SUM and AVG
// depend on float64 summation order, and a float MIN/MAX keeps a
// leading NaN forever (update), so a morsel that opens on one would
// hide the rest of its values from the merge.
func (ap *vecAggPlan) mergesExactly() bool {
	for _, slot := range ap.slots {
		minMax := slot.fn == "MIN" || slot.fn == "MAX"
		if slot.fn != "COUNT" && !(minMax && slot.argKind != store.KindFloat) {
			return false
		}
	}
	return true
}

// partialOver returns the fanOut whose workers a folds inside — the one
// directly below it, when every slot merges exactly — or nil when a
// aggregates its input's merged stream. vopen and Explain both ask here.
func (a *Aggregate) partialOver(ap *vecAggPlan) fanOut {
	if f, ok := a.In.(fanOut); ok && ap.mergesExactly() {
		return f
	}
	return nil
}

// groupTable is the accumulate half of a vectorized aggregate: the
// groups seen so far — key columns in first-seen order, the hash index
// over them, one aggState per slot — and per-batch working state reused
// from batch to batch: key and argument vectors (evaluated into sc) and
// views of the key columns, refreshed whenever a new group extends them.
type groupTable struct {
	ap        *vecAggPlan
	keyBufs   []*colbuf
	groupKeys []vcol
	groupIdx  map[uint64][]int32
	states    []aggState
	ngroups   int

	sc               *vscratch
	keyCols, argCols []vcol
}

func newGroupTable(ap *vecAggPlan, sc *vscratch) *groupTable {
	nk := len(ap.keys)
	t := &groupTable{ap: ap, sc: sc, keyBufs: make([]*colbuf, nk), groupKeys: make([]vcol, nk),
		groupIdx: map[uint64][]int32{}, states: make([]aggState, len(ap.slots)),
		keyCols: make([]vcol, nk), argCols: make([]vcol, len(ap.slots))}
	for k, ve := range ap.keys {
		t.keyBufs[k] = newColbuf(ve.kind())
		t.groupKeys[k] = t.keyBufs[k].col()
	}
	if nk == 0 {
		// The global group exists even over empty input.
		t.ngroups = 1
		for s := range t.states {
			ap.slots[s].grow(&t.states[s])
		}
	}
	return t
}

// group returns the id of the group keyed by row i of keys, whose hash
// is hs[i], appending a new group when the key is unseen.
func (t *groupTable) group(keys []vcol, i int, hs []uint64) int {
	if len(keys) == 0 {
		return 0 // the global group
	}
	h := hs[i]
	for _, cand := range t.groupIdx[h] {
		match := true
		for k := range keys {
			if !eqVals(&keys[k], i, &t.groupKeys[k], int(cand)) {
				match = false
				break
			}
		}
		if match {
			return int(cand)
		}
	}
	gid := t.ngroups
	t.ngroups++
	for k := range keys {
		t.keyBufs[k].push(&keys[k], i)
		t.groupKeys[k] = t.keyBufs[k].col()
	}
	t.groupIdx[h] = append(t.groupIdx[h], int32(gid))
	for s := range t.states {
		t.ap.slots[s].grow(&t.states[s])
	}
	return gid
}

// hashKeys folds the selected rows of the key columns into per-row
// hashes (nil for the global group).
func hashKeys(keys []vcol, n int, sel []int32, sc *vscratch) []uint64 {
	if len(keys) == 0 {
		return nil
	}
	hs := sc.hashBuf(n)
	for k := range keys {
		hashCol(&keys[k], n, sel, hs, sc)
	}
	return hs
}

// add folds one batch into the table.
func (t *groupTable) add(b *vbatch) {
	t.sc.reset()
	b.scratch = t.sc
	for k, ve := range t.ap.keys {
		t.keyCols[k] = ve.eval(b)
	}
	for s := range t.ap.slots {
		if t.ap.slots[s].arg != nil {
			t.argCols[s] = t.ap.slots[s].arg.eval(b)
		}
	}
	b.scratch = nil
	hs := hashKeys(t.keyCols, b.n, b.sel, t.sc)
	b.forSel(func(i int) {
		gid := t.group(t.keyCols, i, hs)
		for s := range t.ap.slots {
			t.ap.slots[s].update(&t.states[s], gid, &t.argCols[s], i)
		}
	})
}

// merge folds src, the table of a later stretch of the same input, into
// t as if its rows had been added after t's: src's groups arrive in its
// first-seen order, so group order and (given mergesExactly) every
// result equal the serial fold's.
func (t *groupTable) merge(src *groupTable) {
	hs := hashKeys(src.groupKeys, src.ngroups, nil, nil)
	for s := range src.states {
		// A partial MIN/MAX is one more value to fold; partial COUNTs add.
		t.argCols[s] = t.ap.slots[s].col(&src.states[s], src.ngroups)
	}
	for g := 0; g < src.ngroups; g++ {
		gid := t.group(src.groupKeys, g, hs)
		for s := range t.ap.slots {
			if t.ap.slots[s].fn == "COUNT" {
				t.states[s].counts[gid] += t.argCols[s].ints[g]
			} else {
				t.ap.slots[s].update(&t.states[s], gid, &t.argCols[s], g)
			}
		}
	}
}

// fold drains in into a new group table.
func (ap *vecAggPlan) fold(ctx *Ctx, in viter) (*groupTable, error) {
	t := newGroupTable(ap, ctx.takeScratch())
	for {
		b, err := in()
		if err != nil || b == nil {
			return t, err
		}
		t.add(b)
	}
}

// vopen folds the input into a group table and finishes it. Directly
// above a fanOut, an aggregate that merges exactly folds where the rows
// are: each worker drains its slot into that slot's own table — no
// batch outlives its pull, so a question's bytes follow the groups it
// returns, not the rows it scans — and the tables merge in slot order.
func (a *Aggregate) vopen(ctx *Ctx) (viter, error) {
	ap, ok := planVecAgg(a, ctx.Params, false)
	if !ok {
		return nil, errUnknownTable("<aggregate not vectorizable>")
	}
	in := a.In
	if f := a.partialOver(ap); f != nil {
		in = f.Children()[0] // a serial run folds the subtree as it stands
		n, run, err := f.slots(ctx)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			// vecChild's choice, made once for all slots: the subtree may
			// hold what only the row iterator runs (a subquery filter, a
			// cross join), and its leaves read the slot from wctx either way.
			open := rowSource
			if staticVec(in) {
				open = vecOpen
			}
			tabs := make([]*groupTable, n)
			err := run(func(i int, wctx *Ctx) error {
				op, err := open(in, wctx)
				if err == nil {
					// Compiled programs hold per-instance state (a constant's
					// broadcast), so every slot folds through its own.
					wap, _ := planVecAgg(a, wctx.Params, false)
					tabs[i], err = wap.fold(wctx, op)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			for _, src := range tabs[1:] {
				tabs[0].merge(src)
			}
			return tabs[0].finish(), nil
		}
	}
	op, err := vecChild(in, ctx)
	if err != nil {
		return nil, err
	}
	t, err := ap.fold(ctx, op)
	if err != nil {
		return nil, err
	}
	return t.finish(), nil
}

// finish assembles the group pseudo-relation — keys, then aggregate
// results — and evaluates HAVING and the output items over it.
func (t *groupTable) finish() viter {
	ap, nk := t.ap, len(t.ap.keys)
	g := &vbatch{n: t.ngroups, cols: make([]vcol, nk+len(ap.slots))}
	copy(g.cols, t.groupKeys)
	for s := range ap.slots {
		g.cols[nk+s] = ap.slots[s].col(&t.states[s], t.ngroups)
	}
	if ap.having != nil {
		hc := ap.having.eval(g)
		var sel []int32
		for i := 0; i < g.n; i++ {
			if hc.kind == store.KindBool && !hc.null(i) && hc.bools[i] {
				sel = append(sel, int32(i))
			}
		}
		g.sel = sel
		if len(sel) == 0 {
			return func() (*vbatch, error) { return nil, nil }
		}
	}
	out := &vbatch{n: g.rows(), cols: make([]vcol, len(ap.items))}
	for x, ve := range ap.items {
		rc := ve.eval(g)
		if g.sel != nil {
			rc = gatherCol(&rc, g.sel)
		}
		out.cols[x] = rc
	}
	done := false
	return func() (*vbatch, error) {
		if done || out.n == 0 {
			return nil, nil
		}
		done = true
		return out, nil
	}
}

// ---- distinct ----

func (d *Distinct) vopen(ctx *Ctx) (viter, error) {
	in, err := vecOpen(d.In, ctx)
	if err != nil {
		return nil, err
	}
	var seen []*colbuf
	var seenCols []vcol // views of seen, refreshed as it grows
	idx := map[uint64][]int32{}
	total := 0
	sc := ctx.takeScratch()
	var kept []int32
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			nkey := d.N
			if nkey > len(b.cols) {
				nkey = len(b.cols)
			}
			if seen == nil {
				seen = make([]*colbuf, nkey)
				seenCols = make([]vcol, nkey)
				for c := 0; c < nkey; c++ {
					seen[c] = newColbuf(b.cols[c].kind)
					seenCols[c] = seen[c].col()
				}
			}
			sc.reset()
			hs := sc.hashBuf(b.n)
			for c := 0; c < nkey; c++ {
				hashCol(&b.cols[c], b.n, b.sel, hs, sc)
			}
			kept = kept[:0]
			b.forSel(func(i int) {
				for _, cand := range idx[hs[i]] {
					match := true
					for c := 0; c < nkey; c++ {
						if !eqVals(&b.cols[c], i, &seenCols[c], int(cand)) {
							match = false
							break
						}
					}
					if match {
						return
					}
				}
				for c := 0; c < nkey; c++ {
					seen[c].push(&b.cols[c], i)
					seenCols[c] = seen[c].col()
				}
				idx[hs[i]] = append(idx[hs[i]], int32(total))
				total++
				kept = append(kept, int32(i))
			})
			if len(kept) == 0 {
				continue
			}
			out := &vbatch{n: len(kept), cols: make([]vcol, len(b.cols))}
			for c := range b.cols {
				out.cols[c] = gatherCol(&b.cols[c], kept)
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

func (s *Sort) vopen(ctx *Ctx) (viter, error) {
	in, err := vecOpen(s.In, ctx)
	if err != nil {
		return nil, err
	}
	var bufs []*colbuf
	for {
		b, err := in()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if bufs == nil {
			bufs = make([]*colbuf, len(b.cols))
			for c := range b.cols {
				bufs[c] = newColbuf(b.cols[c].kind)
			}
		}
		b.forSel(func(i int) {
			for c := range bufs {
				bufs[c].push(&b.cols[c], i)
			}
		})
	}
	if bufs == nil || bufs[0].len() == 0 {
		return func() (*vbatch, error) { return nil, nil }, nil
	}
	cols := make([]vcol, len(bufs))
	for c := range bufs {
		cols[c] = bufs[c].col()
	}
	total := bufs[0].len()
	perm := make([]int32, total)
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
	out := &vbatch{n: total, cols: make([]vcol, keep)}
	for c := 0; c < keep; c++ {
		out.cols[c] = gatherCol(&cols[c], perm)
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
	in, err := vecOpen(l.In, ctx)
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

// ---- exchange ----

// vopen runs the exchange's subtree vectorized: morsels hand each
// worker a contiguous batch range of the partitioned leaf (an id range
// for index scans), workers drain their vectorized pipelines keeping
// every batch, and the merged stream concatenates morsel outputs in
// order — identical rows to the serial vectorized plan, which is
// itself identical to the serial row plan. An aggregate that merges
// exactly folds inside the workers instead (Aggregate.vopen).
func (e *Exchange) vopen(ctx *Ctx) (viter, error) { return keepSlots(e, ctx) }

// keepSlots is the vectorized open of a fanOut whose consumer wants the
// batches themselves: every slot's, kept, in slot order.
func keepSlots(f fanOut, ctx *Ctx) (viter, error) {
	in := f.Children()[0]
	n, run, err := f.slots(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return vecOpen(in, ctx)
	}
	outs := make([][]*vbatch, n)
	err = run(func(i int, wctx *Ctx) (err error) {
		outs[i], err = keepBatches(in, wctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	oi, bi := 0, 0
	return func() (*vbatch, error) {
		for oi < len(outs) {
			if bi < len(outs[oi]) {
				b := outs[oi][bi]
				bi++
				return b, nil
			}
			oi++
			bi = 0
		}
		return nil, nil
	}, nil
}

// keepBatches drains a worker's pipeline into batches that outlive it:
// the one place that holds a batch past the next pull, so the one that
// copies what the batch was lent (see vbatch).
func keepBatches(n Node, ctx *Ctx) ([]*vbatch, error) {
	op, err := vecOpen(n, ctx)
	if err != nil {
		return nil, err
	}
	var kept []*vbatch
	for {
		b, err := op()
		if err != nil || b == nil {
			return kept, err
		}
		kept = append(kept, b.keep())
	}
}
