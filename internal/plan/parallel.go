package plan

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Exchange runs its subtree on a bounded pool of Workers goroutines.
// Each worker claims morsels (contiguous row ranges of the leaf scan's
// table) from a shared counter and opens its own copy of the subtree's
// iterators once, on its first claim; its leaf scan reads each morsel
// the worker claims. The output — kept batches in their morsel's slot,
// or one group table per worker whose groups remember the morsel that
// created them — merges in morsel order, so parallel execution is
// row-for-row identical to the serial plan. Build sides of hash joins
// inside the subtree are built once and shared read-only across
// workers (see HashJoin.vecBuild).
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
// so Run sizes its worker pool. par <= 1, pipelines that fill no batch
// (see pipelineWork), and plans whose LIMIT streams without a Sort
// (where early exit beats parallel materialization) are returned
// unchanged — ablation runs with Parallelism 1 therefore execute
// exactly today's serial plans.
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
		// them into one group table each when every aggregate merges
		// exactly (Aggregate.vopen).
		if pipelineWork(n.In) >= maxBatch {
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
		if pipelineWork(n.In) >= maxBatch {
			if leaf := partitionLeaf(n.In); leaf != nil {
				attach(&Exchange{In: n, Workers: par, part: leaf})
				p.Par = par
			}
		}
	}
	return p
}

// pipelineWork is the largest estimated operator cardinality in the
// pipeline subtree — the gate for whether a worker pool pays. A
// pipeline none of whose operators is estimated to fill one batch
// (maxBatch rows) runs serially: a single batch's work is smaller than
// starting workers, cutting morsels and compiling a copy of the
// subtree for each worker. The probe-side leaf alone understates work
// badly: the cost-based join order deliberately starts left-deep trees
// from the smallest input, so a 24-row scan can drive joins over
// thousands of build rows.
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
		}
		if est > work {
			work = est
		}
	})
	return work
}

// partitionLeaf descends the probe side of the pipeline (left children
// of joins) to the base scan whose rows will be morsel-partitioned.
// Morsel sizing adapts to the leaf, so a small probe leaf whose joins
// fill more than a batch still fans that downstream work across the
// pool.
func partitionLeaf(n Node) *Scan {
	switch t := n.(type) {
	case *Scan:
		return t
	case *Filter:
		return partitionLeaf(t.In)
	case *HashJoin:
		return partitionLeaf(t.L)
	}
	return nil
}

// worker is what one exchange worker runs under: a copy of the run's
// context whose leaf scan reads the morsel in mr.
type worker struct {
	ctx Ctx
	mr  morselRun
}

// morselRun is what an exchange worker's leaf scan reads: the morsel
// the worker claimed last, m, and its [lo, hi) range of base rows.
type morselRun struct {
	node      *Scan // identity of the leaf scan
	m, lo, hi int
}

// exchangeRun is one run of an Exchange: its morsels, its workers, the
// counter they claim morsels by and the contexts they run under. It is
// a scratch's own (vscratch.exchange), so its vectors keep the capacity
// an earlier run grew them to.
type exchangeRun struct {
	x       *Exchange
	ctx     *Ctx
	spans   [][2]int
	workers int
	next    atomic.Int64
	wk      []worker
}

// bytes is what the run's vectors hold; a nil run holds nothing.
func (r *exchangeRun) bytes() int {
	if r == nil {
		return 0
	}
	return 16*cap(r.spans) + workerBytes*cap(r.wk)
}

// forget drops what the run references outside its vectors: its plan
// and the contexts of its run and workers.
func (r *exchangeRun) forget() {
	if r == nil {
		return
	}
	r.x, r.ctx = nil, nil
	clear(r.wk[:cap(r.wk)])
}

// start sizes one run of the exchange. A nil run means the exchange
// degrades to a serial passthrough of its input — ctx.Par caps the
// plan's worker degree, so an explicit Par of 1 (the serving layer
// shedding load) or a single-row leaf runs the subtree as it stands.
func (e *Exchange) start(ctx *Ctx) (*exchangeRun, error) {
	workers := e.Workers
	if ctx.Par > 0 && ctx.Par < workers {
		workers = ctx.Par
	}
	if workers <= 1 {
		return nil, nil
	}
	tab := ctx.Snap.Table(e.part.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(e.part.B.Meta.Name)
	}
	// A leaf of at most one row passes through.
	if tab.Len() <= 1 {
		return nil, nil
	}
	r := own(&ctx.arena.borrow().exchange)
	r.x, r.ctx, r.spans = e, ctx, morselSpans(r.spans, tab.Len(), workers)
	r.workers = min(workers, len(r.spans))
	r.next.Store(0)
	return r, nil
}

// morselSpans cuts the n rows of a leaf into contiguous, ascending
// morsels, about four per worker for stealing slack. Morsels adapt to
// the leaf, not to the batch: an exchange is placed only where some
// operator of the pipeline fills a batch, and a small probe leaf
// driving such joins still splits. The spans are written over dst.
func morselSpans(dst [][2]int, n, workers int) [][2]int {
	target := max(1, (n+workers*4-1)/(workers*4))
	cuts := (n + target - 1) / target
	step := (n + cuts - 1) / cuts
	spans := slices.Grow(dst[:0], cuts)
	for lo := 0; lo < n; lo += step {
		spans = append(spans, [2]int{lo, min(lo+step, n)})
	}
	return spans
}

// workerSink is what worker w, running under wctx, does with morsel m:
// in is the worker's pipeline, which yields the morsel's batches and
// then nil. What they leave behind — kept batches (Exchange.vopen) or
// the worker's group table (Aggregate.vopen) — is the sink's business.
type workerSink func(w int, wctx *Ctx, m int, in viter) error

// run is the one worker loop. A worker claims a morsel, only then opens
// the subtree, once, under a context whose leaf scan reads the morsel
// the worker claimed last (segScanBatches), and hands sink the pipeline
// for each morsel it claims. Every claim checks for cancellation; the
// first error moves the counter past the last morsel, which stops the
// pool, and is returned.
func (r *exchangeRun) run(sink workerSink) error {
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	r.wk = resize(r.wk, r.workers)
	for w := range r.workers {
		wk := &r.wk[w]
		*wk = worker{ctx: *r.ctx, mr: morselRun{node: r.x.part}}
		wk.ctx.part = &wk.mr
		wg.Add(1)
		go func() {
			defer wg.Done()
			mr, wctx := &wk.mr, &wk.ctx
			var op viter
			for {
				// The counter only grows, so a worker's morsels ascend.
				i := int(r.next.Add(1)) - 1
				if i >= len(r.spans) {
					return
				}
				mr.m, mr.lo, mr.hi = i, r.spans[i][0], r.spans[i][1]
				err := r.ctx.canceled()
				if err == nil && op == nil {
					op, err = r.x.In.vopen(wctx)
				}
				if err == nil {
					err = sink(w, wctx, i, op)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					r.next.Store(int64(len(r.spans)))
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// FoldingWorkers counts the exchange workers of the process whose group
// table (Aggregate.vopen) folded a row. How many of a run's workers do
// is the scheduler's call, and each grows its pipeline's scratch, so a
// test that measures a run's bytes reads here how many workers it had.
var FoldingWorkers atomic.Int64

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
