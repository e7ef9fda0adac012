package plan

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/sql"
	"repro/internal/store"
)

// Ctx carries everything an executing plan needs: the pinned database
// snapshot, the run's options and the state of the current run.
//
// Snap is a store.Snapshot, so the whole plan — row counts, scans,
// segments — reads one frozen version of the data:
// concurrent writers publish new versions without ever being observed
// mid-query.
type Ctx struct {
	Snap *store.Snapshot
	Par  int // worker budget; <= 1 executes serially

	// Params is the parameter vector of a prepared execution: the
	// values sql.Param slots in the plan's expressions resolve to. nil
	// for plans compiled from fully-literal statements.
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

	// tick, when set, is called at each cancellation checkpoint of a
	// run with a Done channel: the seam a test cancels a run through at
	// the checkpoint it chooses (CancelAtCheckpoint).
	tick func()

	part   *morselRun   // set inside an Exchange worker: the leaf's morsels
	shared *sharedState // per-run state shared across Exchange workers
	arena  *runArena    // the run's borrowed working memory: see runArena

	// subs are the subqueries of the plan being run and subRuns their
	// results in this run, shared by its exchange workers; both nil for
	// a plan without subqueries.
	subs    []subquery
	subRuns []subRun
}

// subRun is one subquery's result in one run: its rows and column
// count, or the error that stopped it.
type subRun struct {
	once sync.Once
	rows []store.Row
	cols int
	err  error
}

// subquery returns the rows and column count of sub in this run. The
// first operator to ask runs its plan, serially and under the run's
// snapshot, parameters, counters and cancellation signal; every later
// ask, an exchange worker's included, shares that result.
func (c *Ctx) subquery(sub *sql.SelectStmt) ([]store.Row, int, error) {
	i := slices.IndexFunc(c.subs, func(s subquery) bool { return s.stmt == sub })
	if i < 0 {
		return nil, 0, fmt.Errorf("plan: subquery %s was not compiled with its statement", sub)
	}
	s, r := &c.subs[i], &c.subRuns[i]
	r.once.Do(func() {
		if s.err != nil {
			r.err = s.err
			return
		}
		r.rows, r.err = Run(s.plan, &Ctx{Snap: c.Snap, Par: 1, Params: c.Params,
			SegC: c.SegC, Done: c.Done, Cause: c.Cause})
		r.cols = len(s.plan.Cols)
	})
	return r.rows, r.cols, r.err
}

// Run executes a compiled plan batch-at-a-time over typed column
// vectors and materializes the output rows, boxing each output batch
// into one slab of cells; the rows are the caller's. A LIMIT without
// ORDER BY stops reading its inputs early; only sorts, aggregates and
// join builds buffer, and they buffer rows, never batches. A plan
// rewritten by Parallelize carries its worker degree, picked up here
// unless the caller pinned ctx.Par explicitly. The run's working
// memory — operator scratch, scan batches, join build tables — is
// borrowed from a process-wide pool and handed back once the rows are
// boxed (see runArena).
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
	ctx.subs, ctx.subRuns = p.subs, nil
	if len(p.subs) > 0 {
		ctx.subRuns = make([]subRun, len(p.subs))
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
		// One slab a batch holds its rows' cells, each row capped at its
		// own width, so appending to a row reallocates it and cannot
		// write into the next one.
		w := len(b.cols)
		slab := make([]store.Value, b.rows()*w)
		rows = slices.Grow(rows, b.rows())
		b.forSel(func(i int) {
			row := slab[:w:w]
			slab = slab[w:]
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
