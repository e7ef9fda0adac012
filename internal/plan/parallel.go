package plan

import (
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// minParallelRows is the smallest estimated operator cardinality
// anywhere in the pipeline for which inserting an Exchange pays for
// its worker pool and merge; cheaper pipelines run serially.
const minParallelRows = 256

// minParallelGroups is the smallest group count for which fanning
// group evaluation (HAVING + aggregate items) across workers pays.
const minParallelGroups = 8

// minChunkRows is the smallest chunk a materialized row set is split
// into for parallel hashing and grouping.
const minChunkRows = 128

// Exchange runs its subtree on a bounded pool of Workers goroutines.
// Each worker repeatedly claims a morsel (a contiguous row range) of
// the partitioned leaf scan, runs its own copy of the subtree's
// iterators over just that morsel, and deposits the output — rows,
// kept batches, or the group table of an aggregate folding right there
// — into a per-morsel slot. The slots merge in morsel order, so
// parallel execution is row-for-row identical to the serial plan.
// Build sides of hash joins inside the subtree are built once
// and shared read-only across workers (see HashJoin.buildTable).
type Exchange struct {
	In      Node
	Workers int
	part    Node // the Scan/IndexScan whose rows are split into morsels
}

func (e *Exchange) Rel() *Rel        { return e.In.Rel() }
func (e *Exchange) Children() []Node { return []Node{e.In} }

// Parallelize rewrites a compiled plan for intra-query parallelism at
// degree par. Co-partitioned join pipelines (every leaf hash-
// partitioned at one degree, every join keyed on the partition
// columns) get a PartitionWise operator — whole partitions fan out,
// joins build per-partition with no shared build side. Everything else
// gets an Exchange over the streaming pipeline segment (the operators
// between the projection boundary and the leaves) partitioned on the
// probe-side leftmost base scan into morsels. Either way the plan is
// marked so Run sizes its worker pool. par <= 1, tiny inputs, and
// plans whose LIMIT streams without a Sort (where early exit beats
// parallel materialization) are returned unchanged — ablation runs
// with Parallelism 1 therefore execute exactly today's serial plans.
func Parallelize(sn *store.Snapshot, p *Plan, par int) *Plan {
	if par <= 1 || p.Par > 1 {
		return p
	}

	// Walk from the root down to the projection boundary, remembering
	// how to splice the rewritten subtree back in.
	var attach func(Node)
	node := p.Root
	attach = func(n Node) { p.Root = n }
	hasLimit, hasSort := false, false
walk:
	for {
		switch n := node.(type) {
		case *Limit:
			hasLimit = true
			node, attach = n.In, func(c Node) { n.In = c }
		case *Sort:
			hasSort = true
			node, attach = n.In, func(c Node) { n.In = c }
		case *Distinct:
			node, attach = n.In, func(c Node) { n.In = c }
		default:
			break walk
		}
	}

	switch n := node.(type) {
	case *Aggregate:
		// The parallel operator goes below the aggregate (a pipeline
		// breaker regardless of LIMIT): workers produce partial row
		// streams, the aggregate itself parallelizes its grouping and
		// group evaluation with per-worker partial states.
		if pipelineWork(n.In) >= minParallelRows {
			if deg, scans := partitionWise(sn, n.In, par); deg > 0 {
				n.In = &PartitionWise{In: n.In, Workers: par, N: deg, scans: scans}
				p.Par = par
			} else if leaf := partitionLeaf(n.In); leaf != nil {
				n.In = &Exchange{In: n.In, Workers: par, part: leaf}
				p.Par = par
			}
		}
	case *Project:
		if hasLimit && !hasSort {
			// Rows stream from the scan straight to the LIMIT, which
			// stops reading early; materializing every worker's output
			// first would do strictly more work.
			return p
		}
		// The parallel operator goes above the projection so item
		// evaluation parallelizes too; output rows merge in partition
		// or morsel order.
		if pipelineWork(n.In) >= minParallelRows {
			if deg, scans := partitionWise(sn, n.In, par); deg > 0 {
				attach(&PartitionWise{In: n, Workers: par, N: deg, scans: scans})
				p.Par = par
			} else if leaf := partitionLeaf(n.In); leaf != nil {
				attach(&Exchange{In: n, Workers: par, part: leaf})
				p.Par = par
			}
		}
	}
	return p
}

// pipelineWork is the largest estimated operator cardinality in the
// pipeline subtree — the gate for whether a worker pool pays. The
// probe-side leaf alone understates work badly: the cost-based join
// order deliberately starts left-deep trees from the smallest input,
// so a 24-row scan can drive joins over thousands of build rows.
func pipelineWork(n Node) int {
	work := 0
	Walk(n, func(c Node) {
		est := 0
		switch t := c.(type) {
		case *Scan:
			est = t.Est
		case *IndexScan:
			est = t.Est
		case *Filter:
			est = t.Est
		case *HashJoin:
			est = t.Est
		case *CrossJoin:
			est = t.Est
		}
		if est > work {
			work = est
		}
	})
	return work
}

// partitionLeaf descends the probe side of the pipeline (left children
// of joins) to the base scan whose rows will be morsel-partitioned.
// Morsel sizing adapts to the leaf, so even a small probe leaf fans
// its (potentially expensive) downstream work across the pool.
func partitionLeaf(n Node) Node {
	switch t := n.(type) {
	case *Scan:
		return t
	case *IndexScan:
		return t
	case *Filter:
		return partitionLeaf(t.In)
	case *HashJoin:
		return partitionLeaf(t.L)
	case *CrossJoin:
		return partitionLeaf(t.L)
	}
	return nil
}

// baseRows materializes the unprojected row set of the partitioned
// leaf: the full table for a Scan (ids nil — positions are row ids),
// the index-selected rows and their ids for an IndexScan.
func baseRows(n Node, ctx *Ctx) ([]store.Row, []int, Binding, error) {
	switch s := n.(type) {
	case *Scan:
		tab := ctx.Snap.Table(s.B.Meta.Name)
		if tab == nil {
			return nil, nil, Binding{}, errUnknownTable(s.B.Meta.Name)
		}
		return tab.Rows(), nil, s.B, nil
	case *IndexScan:
		ids, err := s.lookupIDs(ctx)
		if err != nil {
			return nil, nil, Binding{}, err
		}
		tab := ctx.Snap.Table(s.B.Meta.Name)
		rows := make([]store.Row, len(ids))
		for i, id := range ids {
			rows[i] = tab.Row(id)
		}
		return rows, ids, s.B, nil
	}
	return nil, nil, Binding{}, errUnknownTable("<not a leaf>")
}

// morselRun tells a leaf scan inside a worker which slice of its base
// rows to produce instead of the full table. The row iterator consumes
// rows; the vectorized scan consumes the [lo, hi) range (zero-copy
// windows over the segment columns) or, for index scans, the ids to
// gather.
type morselRun struct {
	node   Node // identity of the partitioned leaf
	rows   []store.Row
	lo, hi int   // base-table row range (Scan morsels)
	ids    []int // index-selected row ids (IndexScan morsels)
}

// fanOut is an operator that runs its subtree once per slot — a morsel
// (Exchange) or a partition (PartitionWise) — on a worker pool, such
// that merging what the slots leave behind in slot order reproduces the
// serial plan.
type fanOut interface {
	Node
	// slots sizes one run: the number of slots and the worker loop that
	// hands sink each one, with the context its leaves read that slot
	// under. What a slot leaves behind is the sink's business — drained
	// rows (drainSlots), kept batches (keepSlots) or a partial group
	// table (Aggregate.vopen) — in storage it indexes by slot. n == 0:
	// the operator degrades to a serial passthrough of its input.
	slots(ctx *Ctx) (n int, run func(sink slotSink) error, err error)
	// unit names a slot for Explain: "morsel", "partition".
	unit() string
}

type slotSink func(slot int, wctx *Ctx) error

// slots cuts the partitioned leaf into morsels. ctx.Par caps the plan's
// worker degree, so an explicit Par of 1 (e.g. a caller whose Evaluator
// is not thread-safe) or a single-row leaf runs the subtree as it
// stands.
//
// Morsels adapt to the leaf: ~4 per worker for stealing slack, but
// never more — a small probe leaf driving heavy joins still splits,
// its downstream cost dwarfs the per-morsel iterator setup. A
// partitioned leaf cuts on partition boundaries, so workers claim
// whole partitions before splitting any one into smaller morsels.
func (e *Exchange) slots(ctx *Ctx) (int, func(slotSink) error, error) {
	workers := e.Workers
	if ctx.Par > 0 && ctx.Par < workers {
		workers = ctx.Par
	}
	rows, ids, _, err := baseRows(e.part, ctx)
	if err != nil {
		return 0, nil, err
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers <= 1 {
		return 0, nil, nil
	}
	spans := morselSpans(len(rows), workers, partBoundsFor(ctx, e.part, ids))
	return len(spans), func(sink slotSink) error {
		return runSlots(ctx, workers, len(spans), func(m int, wctx *Ctx) error {
			lo, hi := spans[m][0], spans[m][1]
			mr := &morselRun{node: e.part, rows: rows[lo:hi], lo: lo, hi: hi}
			if ids != nil {
				mr.ids = ids[lo:hi]
			}
			wctx.part = mr
			return sink(m, wctx)
		})
	}, nil
}

// runSlots is the one worker loop: workers claim slots from a shared
// counter and hand each to sink with a context of the worker's own — a
// copy of ctx with no key buffer and the worker's scratch set, rewound.
// The first error stops the pool and is returned.
func runSlots(ctx *Ctx, workers, n int, sink slotSink) error {
	var next atomic.Int64
	var failed atomic.Bool
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs := &scratchSet{}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				err := ctx.canceled()
				if err == nil {
					wctx := *ctx
					wctx.scratch = nil // never share key buffers across workers
					wctx.vs, vs.used = vs, 0
					err = sink(i, &wctx)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// drainSlots is the row-at-a-time open of a fanOut: every slot's rows,
// concatenated in slot order.
func drainSlots(f fanOut, ctx *Ctx) (iter, error) {
	in := f.Children()[0]
	n, run, err := f.slots(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return in.open(ctx)
	}
	outs := make([][]store.Row, n)
	err = run(func(i int, wctx *Ctx) (err error) {
		outs[i], err = drain(in, wctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	oi, ri := 0, 0
	return func() (store.Row, error) {
		for oi < len(outs) {
			if ri < len(outs[oi]) {
				r := outs[oi][ri]
				ri++
				return r, nil
			}
			oi++
			ri = 0
		}
		return nil, nil
	}, nil
}

func (e *Exchange) open(ctx *Ctx) (iter, error) { return drainSlots(e, ctx) }
func (e *Exchange) unit() string                { return "morsel" }

// sharedState carries per-execution state shared by the workers of
// every Exchange in the plan: hash-join build sides (row tables or
// columnar vectorized builds, depending on the mode the join executes
// in) are computed once and probed concurrently.
type sharedState struct {
	mu        sync.Mutex
	builds    map[*HashJoin]*buildEntry
	vecBuilds map[*HashJoin]*vecBuildEntry
}

type buildEntry struct {
	once  sync.Once
	table map[string][]store.Row
	err   error
}

type vecBuildEntry struct {
	once  sync.Once
	build *vecBuildTable
	err   error
}

func (s *sharedState) entry(j *HashJoin) *buildEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builds == nil {
		s.builds = map[*HashJoin]*buildEntry{}
	}
	e, ok := s.builds[j]
	if !ok {
		e = &buildEntry{}
		s.builds[j] = e
	}
	return e
}

func (s *sharedState) vecEntry(j *HashJoin) *vecBuildEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vecBuilds == nil {
		s.vecBuilds = map[*HashJoin]*vecBuildEntry{}
	}
	e, ok := s.vecBuilds[j]
	if !ok {
		e = &vecBuildEntry{}
		s.vecBuilds[j] = e
	}
	return e
}

// parallelHash builds the join hash table from already-materialized
// build rows using per-worker partial tables merged in chunk order, so
// the per-key row order matches a serial build exactly.
func parallelHash(rows []store.Row, key []int, par int) map[string][]store.Row {
	chunk := (len(rows) + par - 1) / par
	if chunk < minChunkRows {
		chunk = minChunkRows
	}
	nc := (len(rows) + chunk - 1) / chunk
	partials := make([]map[string][]store.Row, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := c*chunk, (c+1)*chunk
			if hi > len(rows) {
				hi = len(rows)
			}
			part := map[string][]store.Row{}
			var buf []byte // per-goroutine scratch, never shared
			for _, r := range rows[lo:hi] {
				if k, ok := appendJoinKey(buf[:0], r, key); ok {
					buf = k
					part[string(k)] = append(part[string(k)], r)
				}
			}
			partials[c] = part
		}(c)
	}
	wg.Wait()
	if nc == 1 {
		return partials[0]
	}
	table := map[string][]store.Row{}
	for _, part := range partials {
		for k, rs := range part {
			table[k] = append(table[k], rs...)
		}
	}
	return table
}

// parallelGroups partitions input rows into GROUP BY groups using
// per-worker partial group maps merged in chunk order: group discovery
// order and the row order inside every group match the serial
// partitioning exactly.
func (a *Aggregate) parallelGroups(ctx *Ctx, rel *Rel, input []store.Row, par int) ([]*Group, error) {
	type partial struct {
		byKey map[string]*Group
		order []string
	}
	chunk := (len(input) + par - 1) / par
	if chunk < minChunkRows {
		chunk = minChunkRows
	}
	nc := (len(input) + chunk - 1) / chunk
	partials := make([]partial, nc)
	errs := make([]error, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := c*chunk, (c+1)*chunk
			if hi > len(input) {
				hi = len(input)
			}
			if err := ctx.canceled(); err != nil {
				errs[c] = err
				return
			}
			p := partial{byKey: map[string]*Group{}}
			frame := &Frame{Rel: rel, Parent: ctx.Parent}
			var buf []byte // per-goroutine scratch, never shared
			for _, r := range input[lo:hi] {
				frame.Row = r
				k, err := a.appendGroupKey(ctx, frame, buf[:0])
				if err != nil {
					errs[c] = err
					return
				}
				buf = k
				g, ok := p.byKey[string(k)]
				if !ok {
					g = &Group{Rel: rel, Parent: ctx.Parent}
					p.byKey[string(k)] = g
					p.order = append(p.order, string(k))
				}
				g.Rows = append(g.Rows, r)
			}
			partials[c] = p
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	byKey := map[string]*Group{}
	var groups []*Group
	for _, p := range partials {
		for _, k := range p.order {
			g, ok := byKey[k]
			if !ok {
				byKey[k] = p.byKey[k]
				groups = append(groups, p.byKey[k])
				continue
			}
			g.Rows = append(g.Rows, p.byKey[k].Rows...)
		}
	}
	return groups, nil
}

// evalGroups evaluates HAVING and the output items of every group,
// fanning the independent group evaluations across par workers while
// keeping group order: slot i of the result belongs to group i, with
// nil marking a group HAVING filtered out.
func (a *Aggregate) evalGroups(ctx *Ctx, groups []*Group, par int) ([]store.Row, error) {
	out := make([]store.Row, len(groups))
	if par > len(groups) {
		par = len(groups)
	}
	var next atomic.Int64
	errs := make([]error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				if err := ctx.canceled(); err != nil {
					errs[w] = err
					return
				}
				row, keep, err := a.evalGroup(ctx, groups[gi])
				if err != nil {
					errs[w] = err
					return
				}
				if keep {
					out[gi] = row
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	kept := out[:0]
	for _, r := range out {
		if r != nil {
			kept = append(kept, r)
		}
	}
	return kept, nil
}
