package plan

import (
	"sync"
	"sync/atomic"
)

// minParallelRows is the smallest estimated operator cardinality
// anywhere in the pipeline for which inserting an Exchange pays for
// its worker pool and merge; cheaper pipelines run serially.
const minParallelRows = 256

// Exchange runs its subtree on a bounded pool of Workers goroutines.
// Each worker repeatedly claims a morsel (a contiguous row range) of
// the leaf scan's table, runs its own copy of the subtree's iterators
// over just that morsel, and deposits the output — kept batches, or the
// group table of an aggregate folding right there — into a per-morsel
// slot. The slots merge in morsel order, so parallel
// execution is row-for-row identical to the serial plan. Build sides
// of hash joins inside the subtree are built once and shared read-only
// across workers (see HashJoin.vecBuild).
type Exchange struct {
	In      Node
	Workers int
	part    *Scan // the scan whose rows are split into morsels
}

func (e *Exchange) Rel() *Rel        { return e.In.Rel() }
func (e *Exchange) Children() []Node { return []Node{e.In} }

// Parallelize rewrites a compiled plan for intra-query parallelism at
// degree par: an Exchange goes over the streaming pipeline segment (the
// operators between the projection boundary and the leaves), splitting
// the probe-side leftmost base scan into morsels, and the plan is marked
// so Run sizes its worker pool. par <= 1, tiny inputs, and plans whose
// LIMIT streams without a Sort (where early exit beats parallel
// materialization) are returned unchanged — ablation runs with
// Parallelism 1 therefore execute exactly today's serial plans.
func Parallelize(p *Plan, par int) *Plan {
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
		// The exchange goes below the aggregate (a pipeline breaker
		// regardless of LIMIT): workers produce partial streams, or fold
		// them into per-morsel group tables when every aggregate merges
		// exactly (Aggregate.vopen).
		if pipelineWork(n.In) >= minParallelRows {
			if leaf := partitionLeaf(n.In); leaf != nil {
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
		// The exchange goes above the projection so item evaluation
		// parallelizes too; output rows merge in morsel order.
		if pipelineWork(n.In) >= minParallelRows {
			if leaf := partitionLeaf(n.In); leaf != nil {
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
func partitionLeaf(n Node) *Scan {
	switch t := n.(type) {
	case *Scan:
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

// morselRun tells the leaf scan inside a worker which slice of its
// base rows to produce instead of the full table: the [lo, hi) range,
// read as zero-copy windows over the segment columns.
type morselRun struct {
	node   *Scan // identity of the leaf scan
	lo, hi int   // base-table row range
}

// slotSink receives one morsel of an Exchange run with the context its
// leaf reads that morsel under. What a morsel leaves behind is the
// sink's business — kept batches (keepSlots) or a partial group table
// (Aggregate.vopen) — in storage it indexes by morsel.
type slotSink func(slot int, wctx *Ctx) error

// slots sizes one run: the number of morsels and the worker loop that
// hands sink each one. n == 0: the exchange degrades to a serial
// passthrough of its input — ctx.Par caps the plan's worker degree, so
// an explicit Par of 1 (e.g. a caller whose Evaluator is not
// thread-safe) or a single-row leaf runs the subtree as it stands.
func (e *Exchange) slots(ctx *Ctx) (int, func(slotSink) error, error) {
	workers := e.Workers
	if ctx.Par > 0 && ctx.Par < workers {
		workers = ctx.Par
	}
	if workers <= 1 {
		return 0, nil, nil
	}
	tab := ctx.Snap.Table(e.part.B.Meta.Name)
	if tab == nil {
		return 0, nil, errUnknownTable(e.part.B.Meta.Name)
	}
	// A leaf of at most one row passes through.
	n := tab.Len()
	if n <= 1 {
		return 0, nil, nil
	}
	spans := morselSpans(n, workers)
	workers = min(workers, len(spans))
	return len(spans), func(sink slotSink) error {
		return runSlots(ctx, workers, len(spans), func(m int, wctx *Ctx) error {
			wctx.part = &morselRun{node: e.part, lo: spans[m][0], hi: spans[m][1]}
			return sink(m, wctx)
		})
	}, nil
}

// morselSpans cuts the n rows of a leaf into contiguous, ascending
// morsels, about four per worker for stealing slack, so the in-order
// merge stays canonical. Morsels adapt to the leaf — a small probe
// leaf driving heavy joins still splits, its downstream cost dwarfs
// the per-morsel iterator setup.
func morselSpans(n, workers int) [][2]int {
	target := max(1, (n+workers*4-1)/(workers*4))
	cuts := (n + target - 1) / target
	step := (n + cuts - 1) / cuts
	spans := make([][2]int, 0, cuts)
	for lo := 0; lo < n; lo += step {
		spans = append(spans, [2]int{lo, min(lo+step, n)})
	}
	return spans
}

// runSlots is the one worker loop: workers claim slots from a shared
// counter and hand each to sink with a context of the worker's own — a
// copy of ctx with the worker's scratch set, rewound. The first error
// stops the pool and is returned.
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

// sharedState carries per-execution state shared by the workers of
// every Exchange in the plan: hash-join build sides are computed once
// and probed concurrently.
type sharedState struct {
	mu     sync.Mutex
	builds map[*HashJoin]*buildEntry
}

type buildEntry struct {
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
