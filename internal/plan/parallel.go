package plan

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sql"
)

// Parallelize rewrites a compiled plan for intra-query parallelism at
// degree par: the aggregate, if the plan has one below its Limit, Sort
// and Distinct and it calls no DISTINCT aggregate, gets par workers and
// the scan they split into morsels — the probe-side leftmost base scan
// of its input (partitionLeaf) — and the plan is marked so Run sizes
// its worker pool. Each worker folds every morsel it claims into one
// group table of its own (Aggregate.vopen), so no batch outlives its
// pull: row-returning plans and DISTINCT aggregates, whose per-worker
// partials would count a value once per worker, run serially at any
// degree, and so do pipelines that fill no batch (see pipelineWork).
// par <= 1 returns the plan unchanged — ablation runs with Parallelism
// 1 therefore execute exactly today's serial plans.
func Parallelize(p *Plan, par int) *Plan {
	if par <= 1 || p.Par > 1 {
		return p
	}
	node := p.Root
walk:
	for {
		switch n := node.(type) {
		case *Limit:
			node = n.In
		case *Sort:
			node = n.In
		case *Distinct:
			node = n.In
		default:
			break walk
		}
	}
	a, ok := node.(*Aggregate)
	if !ok || callsDistinct(a) || pipelineWork(a.In) < maxBatch {
		return p
	}
	if leaf := partitionLeaf(a.In); leaf != nil {
		a.Workers, a.part = par, leaf
		p.Par = par
	}
	return p
}

// callsDistinct reports whether an item, sort key or HAVING of a calls
// an aggregate over DISTINCT values.
func callsDistinct(a *Aggregate) bool {
	distinct := false
	visit := func(e sql.Expr) bool {
		if fc, ok := e.(*sql.FuncCall); ok && fc.Distinct {
			distinct = true
		}
		return !distinct
	}
	for _, e := range a.Items {
		sql.Walk(e, visit)
	}
	for _, e := range a.SortKeys {
		sql.Walk(e, visit)
	}
	sql.Walk(a.Having, visit)
	return distinct
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
	Walk(n, func(c Node) { work = max(work, estRows(c)) })
	return work
}

// estRows is the optimizer's row estimate of a scan, filter or join; 0
// for any other operator.
func estRows(n Node) int {
	switch t := n.(type) {
	case *Scan:
		return t.Est
	case *Filter:
		return t.Est
	case *HashJoin:
		return t.Est
	}
	return 0
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

// worker is what one of an aggregate's workers runs under: a copy of
// the run's context whose leaf scan reads the morsel in mr and whose
// probe spine reads the tables built before the workers started, and
// the error that stopped it.
type worker struct {
	ctx Ctx
	mr  morselRun
	err error
}

// morselRun is what a worker's leaf scan reads: the morsel the worker
// claimed last, m, and its [lo, hi) range of base rows.
type morselRun struct {
	node      *Scan // identity of the leaf scan
	m, lo, hi int
}

// joinBuild is the table of a hash join on a parallel aggregate's probe
// spine, built before the workers start (exchangeRun.buildSpine).
type joinBuild struct {
	j  *HashJoin
	bt *vecBuildTable
}

// exchangeRun is one parallel run of an aggregate: its morsels, the
// tables of the joins its workers probe, its workers, the counter they
// claim morsels by and the contexts they run under. It is a scratch's
// own (vscratch.exchange), so its vectors keep the capacity an earlier
// run grew them to.
type exchangeRun struct {
	a       *Aggregate
	ctx     *Ctx
	spans   [][2]int
	builds  []joinBuild
	workers int
	next    atomic.Int64
	wk      []worker
}

// bytes is what the run's vectors hold; a nil run holds nothing.
func (r *exchangeRun) bytes() int {
	if r == nil {
		return 0
	}
	return 16*cap(r.spans) + joinBuildBytes*cap(r.builds) + workerBytes*cap(r.wk)
}

// forget drops what the run references outside its vectors: its plan,
// its build tables and the contexts of its run and workers.
func (r *exchangeRun) forget() {
	if r == nil {
		return
	}
	r.a, r.ctx = nil, nil
	clear(r.builds[:cap(r.builds)])
	clear(r.wk[:cap(r.wk)])
}

// start sizes one parallel run of a and builds the tables its workers
// probe (buildSpine). A nil run means a folds serially — ctx.Par caps
// the plan's worker degree, so an explicit Par of 1 (the serving layer
// shedding load), an aggregate Parallelize gave no workers or a
// single-row leaf runs the input as it stands.
func (a *Aggregate) start(ctx *Ctx) (*exchangeRun, error) {
	workers := a.Workers
	if ctx.Par > 0 && ctx.Par < workers {
		workers = ctx.Par
	}
	if workers <= 1 {
		return nil, nil
	}
	tab := ctx.Snap.Table(a.part.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(a.part.B.Meta.Name)
	}
	// A leaf of at most one row folds serially.
	if tab.Len() <= 1 {
		return nil, nil
	}
	r := own(&ctx.arena.borrow().exchange)
	r.a, r.ctx, r.spans = a, ctx, morselSpans(r.spans, tab.Len(), workers)
	r.workers = min(workers, len(r.spans))
	r.next.Store(0)
	if err := r.buildSpine(); err != nil {
		return nil, err
	}
	// The workers read the run's subquery results; they are all filled
	// here, as every one of them is asked for below the aggregate.
	for _, s := range ctx.subs {
		ctx.subquery(s.stmt)
	}
	return r, nil
}

// buildSpine builds the table of every hash join on the probe spine —
// the joins partitionLeaf descends through — once, outermost first as
// the serial plan opens them, on the aggregate's goroutine and in
// scratch borrowed from the run's arena. The workers only read them
// (built); a join inside a build side is built with it.
func (r *exchangeRun) buildSpine() error {
	r.builds = r.builds[:0]
	for n := r.a.In; n != Node(r.a.part); {
		switch t := n.(type) {
		case *Filter:
			n = t.In
		case *HashJoin:
			bt, err := t.vecBuild(r.ctx)
			if err != nil {
				return err
			}
			r.builds = append(r.builds, joinBuild{t, bt})
			n = t.L
		}
	}
	return nil
}

// built is the table buildSpine built for j: nil outside a parallel run
// (a nil r) and for a join off the probe spine, which builds its own.
func (r *exchangeRun) built(j *HashJoin) *vecBuildTable {
	if r == nil {
		return nil
	}
	for _, b := range r.builds {
		if b.j == j {
			return b.bt
		}
	}
	return nil
}

// morselSpans cuts the n rows of a leaf into contiguous, ascending
// morsels, about four per worker for stealing slack. Morsels adapt to
// the leaf, not to the batch: an aggregate gets workers only where
// some operator of its pipeline fills a batch, and a small probe leaf
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
// then nil. The one sink folds them into the worker's group table
// (Aggregate.vopen).
type workerSink func(w int, wctx *Ctx, m int, in viter) error

// run is the one worker loop. A worker claims a morsel, only then opens
// the aggregate's input, once, under a context whose leaf scan reads
// the morsel the worker claimed last (segScanBatches) and whose joins
// probe the tables built before (buildSpine), and hands sink the
// pipeline for each morsel it claims. Every claim checks for
// cancellation; an error moves the counter past the last morsel, which
// stops the pool, and the first worker's is returned.
func (r *exchangeRun) run(sink workerSink) error {
	var wg sync.WaitGroup
	r.wk = resize(r.wk, r.workers)
	for w := range r.workers {
		wk := &r.wk[w]
		*wk = worker{ctx: *r.ctx, mr: morselRun{node: r.a.part}}
		wk.ctx.part, wk.ctx.run = &wk.mr, r
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
					op, err = r.a.In.vopen(wctx)
				}
				if err == nil {
					err = sink(w, wctx, i, op)
				}
				if err != nil {
					wk.err = err
					r.next.Store(int64(len(r.spans)))
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range r.wk {
		if err := r.wk[w].err; err != nil {
			return err
		}
	}
	return nil
}

// FoldingWorkers counts the aggregate workers of the process whose group
// table (Aggregate.vopen) folded a row. How many of a run's workers do
// is the scheduler's call, and each grows its pipeline's scratch, so a
// test that measures a run's bytes reads here how many workers it had.
var FoldingWorkers atomic.Int64
