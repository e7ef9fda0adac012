// Package exec evaluates SQL ASTs (internal/sql) against the in-memory
// store (internal/store). Queries are compiled by internal/plan into a
// cost-optimized operator tree (predicate pushdown, column pruning,
// index-aware join ordering) and executed by plan's Volcano-style
// streaming iterators; this package contributes the scalar-expression
// evaluator those iterators call back into, covering multi-table
// equi-joins, aggregation with GROUP BY and HAVING, DISTINCT, ORDER BY
// with alias references, LIMIT, IN/EXISTS and scalar subqueries
// including correlated ones.
//
// Evaluation uses collapsed three-valued logic: comparisons involving
// NULL yield NULL, AND/OR/NOT propagate NULL, and a WHERE/HAVING accepts
// a row only when the predicate is exactly TRUE.
//
// ReferenceQueryAt preserves the pre-planner execution strategy
// (materialize the full join product, then filter) as a differential-
// testing baseline.
package exec

import (
	"context"
	"sync"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// Result is the output of a query.
type Result struct {
	Cols []string
	Rows []store.Row
}

// Compile compiles stmt against a pinned snapshot into an optimized
// plan without running it, rewritten for intra-query parallelism at
// degree par (par <= 1 keeps the serial plan; see plan.Parallelize for
// when the rewrite declines) — the seam core uses to time planning
// separately and surface the chosen plan in answers.
func Compile(sn *store.Snapshot, stmt *sql.SelectStmt, par int) (*plan.Plan, error) {
	p, err := plan.Compile(sn, stmt)
	if err != nil {
		return nil, err
	}
	return plan.Parallelize(sn, p, par), nil
}

// RunOpts are the independently settable axes of one plan execution.
// The zero value runs the plan as compiled.
type RunOpts struct {
	// Params is the parameter vector of a prepared execution: the
	// values sql.Param slots evaluate to, shared by the outer plan and
	// every subquery (slots are numbered across the whole statement
	// tree). nil for fully-literal statements.
	Params []store.Value

	// Par, when > 0, caps the execution-time parallel degree below the
	// plan's compiled degree; 0 runs at the compiled degree. The serving
	// layer uses 1 to shed a cached parallel plan to serial execution
	// under load without recompiling it — Exchange degrades to a
	// passthrough when its worker cap is 1, rows stay identical.
	Par int

	// NoVec forces row-at-a-time execution everywhere, subqueries
	// included: it reads the row face only, consults no zone map and
	// touches no segment cache — the oracle the vectorized and segment
	// differential tests and the F7/F11/F12 experiments compare against.
	NoVec bool

	// SegC and PartC, when set, accumulate segments decoded vs skipped
	// by zone maps and partitions read vs pruned by bound predicates,
	// across every scan of the run including subqueries and parallel
	// workers — the cumulative numbers behind /api/stats.
	SegC  *store.SegCounters
	PartC *store.PartCounters
}

// Run executes a compiled plan against a pinned snapshot — the one way
// to run a plan. The snapshot is held for the whole run (every
// subquery included), so concurrent writers never change what an
// in-flight query sees; to make plan-time choices (index scans,
// estimates) and run-time data agree exactly, pass the snapshot the
// plan was compiled on. The run observes ctx cancellation at batch
// granularity (leaf scans, materialize loops, exchange morsel claims,
// segment fault-in waits) and returns context.Cause(ctx) promptly
// instead of finishing work nobody is waiting for; see arm for what a
// background context costs (nothing).
func Run(ctx context.Context, sn *store.Snapshot, p *plan.Plan, o RunOpts) (*Result, error) {
	ex := newExecutor(sn, o)
	ex.arm(ctx)
	return ex.run(p, nil)
}

// Query compiles stmt serially and runs it with default options — the
// reproducible single-worker path every differential baseline compares
// against.
func Query(sn *store.Snapshot, stmt *sql.SelectStmt) (*Result, error) {
	p, err := Compile(sn, stmt, 1)
	if err != nil {
		return nil, err
	}
	return Run(context.Background(), sn, p, RunOpts{})
}

// RunBoundCountedAtCtx is Run with its options spelled positionally.
// It exists only because benchmark/ is frozen and compiles against this
// name; it goes when benchmark/replay.go is next opened.
func RunBoundCountedAtCtx(ctx context.Context, sn *store.Snapshot, p *plan.Plan, params []store.Value, par int,
	segc *store.SegCounters, partc *store.PartCounters) (*Result, error) {
	return Run(ctx, sn, p, RunOpts{Params: params, Par: par, SegC: segc, PartC: partc})
}

// executor evaluates expressions for plan iterators and runs nested
// subqueries, memoizing uncorrelated subquery results and compiled
// subquery plans. It holds the query's pinned snapshot: the outer
// plan, every subquery plan and every subquery run read the same data
// version, so a query's parts can never observe different writes.
// Parallel plans call Eval/EvalGroup from multiple exchange workers at
// once, so every cache access takes mu; the cached values themselves
// are immutable once published. Two workers racing on the same cold
// entry may both compute it — the duplicated work is bounded and both
// insert identical results.
type executor struct {
	sn        *store.Snapshot
	opts      RunOpts // applied to the outer plan and every subquery run
	mu        sync.Mutex
	subCache  map[*sql.SelectStmt]*Result // uncorrelated subquery results
	planCache map[*sql.SelectStmt]*plan.Plan
	corrCache map[*sql.SelectStmt]bool // memoized correlation verdicts
	reference bool                     // route subqueries through the reference path too

	// done and cause carry a served request's cancellation signal into
	// plan.Ctx — the Done channel and context.Cause of the request's
	// context, extracted by arm. They are channel and callback, not a
	// stored context (the ctxfirst rule): contexts flow through call
	// chains, never into struct fields.
	done  <-chan struct{}
	cause func() error
}

func newExecutor(sn *store.Snapshot, o RunOpts) *executor {
	return &executor{
		sn:        sn,
		opts:      o,
		subCache:  map[*sql.SelectStmt]*Result{},
		planCache: map[*sql.SelectStmt]*plan.Plan{},
		corrCache: map[*sql.SelectStmt]bool{},
	}
}

// arm points the executor's cancellation signal at ctx. The contract,
// pinned by TestArmSignal:
//
//   - context.Background(), context.TODO(), and any other context whose
//     Done() returns nil keep the executor's signal nil — the unserved
//     paths (tests, benchmarks, nlibench) pay zero cancellation
//     overhead, because plan's checkpoint wrappers (ctxIter/ctxViter)
//     return iterators unchanged when Done is nil;
//   - any context with a Done channel — cancelable, deadline-bearing,
//     or derived from one — always arms the executor, so every
//     iterator checkpoint, exchange morsel claim and segment fault-in
//     wait observes it.
func (ex *executor) arm(ctx context.Context) {
	if ctx == nil {
		return
	}
	if done := ctx.Done(); done != nil {
		ex.done = done
		ex.cause = func() error { return context.Cause(ctx) }
	}
}

// run executes p under the executor's options. The Result's Cols is the
// plan's own slice, shared with every other run of a cached plan:
// read-only to callers (core.owned clones it where an answer is handed
// out to keep).
func (ex *executor) run(p *plan.Plan, parent *plan.Frame) (*Result, error) {
	o := &ex.opts
	rows, err := plan.Run(p, &plan.Ctx{Snap: ex.sn, Ev: ex, Parent: parent,
		NoVec: o.NoVec, SegC: o.SegC, PartC: o.PartC,
		Params: o.Params, Par: o.Par, Done: ex.done, Cause: ex.cause})
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Cols, Rows: rows}, nil
}

// selectStmt executes a (sub)query, compiling and caching its plan.
// Plans depend only on the statement and the database, never on the
// outer row, so correlated subqueries recompile nothing per row.
// Subquery plans are never parallelized: the top-level exchange
// already saturates the worker budget.
func (ex *executor) selectStmt(stmt *sql.SelectStmt, parent *plan.Frame) (*Result, error) {
	if ex.reference {
		return ex.referenceSelect(stmt, parent)
	}
	ex.mu.Lock()
	p, ok := ex.planCache[stmt]
	ex.mu.Unlock()
	if !ok {
		var err error
		p, err = plan.CompileWith(ex.sn, stmt, ex.opts.Params)
		if err != nil {
			return nil, err
		}
		ex.mu.Lock()
		ex.planCache[stmt] = p
		ex.mu.Unlock()
	}
	return ex.run(p, parent)
}

// isTrue collapses 3VL to acceptance.
func isTrue(v store.Value) bool { return plan.IsTrue(v) }
