package plan

import (
	"fmt"

	"repro/internal/store"
)

// MaxProduct bounds cartesian products so a bad interpretation cannot
// take the process down.
const MaxProduct = 5_000_000

// Ctx carries everything an executing plan needs: the pinned database
// snapshot, the expression evaluator, the correlation parent for
// subquery plans, and the parallel-execution state of the current run.
// When Par > 1 the Evaluator must be safe for concurrent use.
//
// Snap is a store.Snapshot, so the whole plan — row counts, scans,
// segments — reads one frozen version of the data:
// concurrent writers publish new versions without ever being observed
// mid-query.
type Ctx struct {
	Snap   *store.Snapshot
	Ev     Evaluator
	Parent *Frame
	Par    int // worker budget; <= 1 executes serially

	// Params is the parameter vector of a prepared execution: the
	// values sql.Param slots in the plan's expressions and zone-map
	// skips resolve to. nil for plans
	// compiled from fully-literal statements.
	Params []store.Value

	// SegC, when set, accumulates runtime segment counters: segments
	// decoded vs segments skipped by zone maps across all scans of the
	// run (including Exchange workers — the fields are atomic).
	SegC *store.SegCounters

	// Done, when non-nil, is the cancellation signal of the request
	// this run serves (a context's Done channel, threaded by exec).
	// Iterator loops check it at batch granularity — see cancel.go —
	// and abort the run with Cause's error (context.Canceled when
	// Cause is nil or returns nil). A nil Done runs with zero
	// cancellation overhead.
	Done <-chan struct{}

	// Cause reports why Done closed (context.Cause of the request
	// context), letting the serving layer distinguish a deadline from
	// a client disconnect in the error it maps to a status code.
	Cause func() error

	part   *morselRun   // set inside an Exchange worker: the leaf's morsel
	shared *sharedState // per-run state shared across Exchange workers
	arena  *runArena    // the run's borrowed working memory: see takeScratch
	vs     *scratchSet  // set inside an Exchange worker: see takeScratch
}

// Run executes a compiled plan batch-at-a-time over typed column
// vectors and materializes the output rows. A LIMIT without ORDER BY
// stops reading its inputs early; only sorts, aggregates, join inputs
// and exchange merges buffer. A plan rewritten by Parallelize carries
// its worker degree, picked up here unless the caller pinned ctx.Par
// explicitly. The run's working memory — operator scratch, scan
// batches, join build tables — is borrowed from a process-wide pool
// and handed back once the rows are boxed (see runArena).
func Run(p *Plan, ctx *Ctx) ([]store.Row, error) {
	if ctx.Par == 0 {
		ctx.Par = p.Par
	}
	// The shared builds and the arena are this run's own: a build
	// lives in the arena's scratch, which goes back to the pool when
	// the run ends, so no later run may find it.
	ctx.shared = nil
	if ctx.Par > 1 {
		ctx.shared = &sharedState{}
	}
	arena := &runArena{}
	ctx.arena = arena
	defer arena.release()
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	op, err := p.Root.vopen(ctx)
	if err != nil {
		return nil, err
	}
	var rows []store.Row
	for {
		b, err := op()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		b.forSel(func(i int) {
			row := make(store.Row, len(b.cols))
			for c := range b.cols {
				row[c] = b.cols[c].value(i)
			}
			rows = append(rows, row)
		})
		if err := ctx.canceled(); err != nil {
			return nil, err
		}
	}
}

func errUnknownTable(name string) error {
	return fmt.Errorf("plan: unknown table %q", name)
}
