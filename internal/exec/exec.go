// Package exec evaluates SQL ASTs (internal/sql) against the in-memory
// store (internal/store). Queries are compiled by internal/plan into a
// cost-optimized operator tree (predicate pushdown, column pruning,
// join ordering from row counts and declared keys, each uncorrelated
// subquery a plan of its own) and executed by plan's vectorized engine
// (Compile, Run). It runs the SQL the front end writes (iql.ToSQL) and
// fails the rest — a correlated subquery, a cartesian product, OR,
// arithmetic, IS NULL and the like — with ErrUnsupported.
//
// ReferenceQueryAt preserves the pre-planner execution strategy
// (materialize the full join product, then filter, evaluating every
// expression row by row) as the differential-testing oracle; it alone
// owns the scalar evaluator (eval.go), with collapsed three-valued
// logic — comparisons involving NULL yield NULL, AND/OR/NOT propagate
// NULL, and a WHERE/HAVING accepts a row only when the predicate is
// exactly TRUE — and correlated subqueries.
package exec

import (
	"context"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// ErrUnsupported is wrapped by the error of a statement the planned
// executor does not run, any SQL the front end does not write (see
// plan.ErrUnsupported); the reference executor runs it.
var ErrUnsupported = plan.ErrUnsupported

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
	return plan.Parallelize(p, par), nil
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
	// under load without recompiling it — a parallel aggregate folds
	// serially when its worker cap is 1, rows stay identical.
	Par int

	// SegC, when set, accumulates segments decoded vs skipped by zone
	// maps across every scan of the run, subqueries and parallel
	// workers included — the cumulative numbers behind /api/stats.
	SegC *store.SegCounters
}

// Run executes a compiled plan against a pinned snapshot — the one way
// to run a plan. The snapshot is held for the whole run (every
// subquery included), so concurrent writers never change what an
// in-flight query sees; to make plan-time choices (estimates, the
// skip counts Explain reports) and run-time data agree exactly, pass
// the snapshot the plan was compiled on. The run observes ctx cancellation at batch
// granularity (leaf scans, materialize loops, workers' morsel claims)
// and returns context.Cause(ctx) promptly instead of finishing work
// nobody is waiting for; see arm for what a background context costs
// (nothing).
//
// The Result's Cols is the plan's own slice, shared with every other
// run of a cached plan: read-only to callers (core.owned clones it
// where an answer is handed out to keep).
func Run(ctx context.Context, sn *store.Snapshot, p *plan.Plan, o RunOpts) (*Result, error) {
	pc := &plan.Ctx{Snap: sn, Par: o.Par, Params: o.Params, SegC: o.SegC}
	arm(ctx, pc)
	rows, err := plan.Run(p, pc)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Cols, Rows: rows}, nil
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
// name; it goes when benchmark/replay.go is next opened, and with it
// partc, which nothing reads.
func RunBoundCountedAtCtx(ctx context.Context, sn *store.Snapshot, p *plan.Plan, params []store.Value, par int,
	segc *store.SegCounters, partc *store.PartCounters) (*Result, error) {
	return Run(ctx, sn, p, RunOpts{Params: params, Par: par, SegC: segc})
}

// arm points a run's cancellation signal at ctx. The contract, pinned
// by TestArmSignal:
//
//   - context.Background(), context.TODO(), and any other context whose
//     Done() returns nil leave the signal nil — the unserved paths
//     (tests, benchmarks, the accuracy harness) pay zero cancellation
//     overhead, because plan's checkpoint wrapper (Ctx.checkpoint)
//     returns iterators unchanged when Done is nil;
//   - any context with a Done channel — cancelable, deadline-bearing,
//     or derived from one — always arms the run, so every iterator
//     checkpoint and worker's morsel claim observes it.
//
// The signal is the Done channel and a context.Cause callback, not a
// stored context (the ctxfirst rule): contexts flow through call
// chains, never into struct fields.
func arm(ctx context.Context, pc *plan.Ctx) {
	if ctx == nil {
		return
	}
	if done := ctx.Done(); done != nil {
		pc.Done = done
		pc.Cause = func() error { return context.Cause(ctx) }
	}
}
