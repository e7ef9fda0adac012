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
// Snap is a store.Snapshot, so the whole plan — scans, index probes,
// segments, statistics — reads one frozen version of the data:
// concurrent writers publish new versions without ever being observed
// mid-query.
type Ctx struct {
	Snap   *store.Snapshot
	Ev     Evaluator
	Parent *Frame
	Par    int // worker budget; <= 1 executes serially

	// Params is the parameter vector of a prepared execution: the
	// values sql.Param slots in the plan's expressions (and the
	// parameter-slot probes of index scans) resolve to. nil for plans
	// compiled from fully-literal statements.
	Params []store.Value

	// SegC, when set, accumulates runtime segment counters: segments
	// decoded vs segments skipped by zone maps across all scans of the
	// run (including Exchange workers — the fields are atomic).
	SegC *store.SegCounters

	// PartC, when set, accumulates runtime partition counters: the
	// partitions scans actually read vs the partitions pruned by bound
	// predicates against partition statistics (atomic fields, shared by
	// parallel workers like SegC).
	PartC *store.PartCounters

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
	vs     *scratchSet  // set inside an Exchange worker: see takeScratch
}

// Run executes a compiled plan batch-at-a-time over typed column
// vectors and materializes the output rows. A LIMIT without ORDER BY
// stops reading its inputs early; only sorts, aggregates, join inputs
// and exchange merges buffer. A plan rewritten by Parallelize carries
// its worker degree, picked up here unless the caller pinned ctx.Par
// explicitly.
func Run(p *Plan, ctx *Ctx) ([]store.Row, error) {
	if ctx.Par == 0 {
		ctx.Par = p.Par
	}
	if ctx.Par > 1 && ctx.shared == nil {
		ctx.shared = &sharedState{}
	}
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

// probeVals resolves the scan's probe and bounds against the run's
// parameter vector: slot-carrying scans read Ctx.Params, literal scans
// return their baked values.
func (s *IndexScan) probeVals(ctx *Ctx) (eq, lo, hi *store.Value, err error) {
	eq, lo, hi = s.Eq, s.Lo, s.Hi
	at := func(slot int) (*store.Value, error) {
		if slot >= len(ctx.Params) {
			return nil, fmt.Errorf("plan: index scan on %s.%s references unbound parameter $%d",
				s.B.Meta.Name, s.Col, slot+1)
		}
		v := ctx.Params[slot]
		return &v, nil
	}
	if s.EqP >= 0 {
		if eq, err = at(s.EqP); err != nil {
			return nil, nil, nil, err
		}
	}
	if s.LoP >= 0 {
		if lo, err = at(s.LoP); err != nil {
			return nil, nil, nil, err
		}
	}
	if s.HiP >= 0 {
		if hi, err = at(s.HiP); err != nil {
			return nil, nil, nil, err
		}
	}
	return eq, lo, hi, nil
}

// lookupIDs resolves the index probe or range into matching row ids.
func (s *IndexScan) lookupIDs(ctx *Ctx) ([]int, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	eq, lo, hi, err := s.probeVals(ctx)
	if err != nil {
		return nil, err
	}
	// A NULL probe or bound means the consumed conjunct compares
	// against NULL: three-valued logic makes it NULL for every row, so
	// the scan matches nothing. (The optimizer never consumes NULL
	// literals, but a parameter slot can be bound to NULL at run time.)
	if (eq != nil && eq.IsNull()) || (lo != nil && lo.IsNull()) || (hi != nil && hi.IsNull()) {
		return nil, nil
	}
	var ids []int
	var ok bool
	if eq != nil {
		ids, ok = tab.LookupIndex(s.Col, *eq)
	} else {
		ids, ok = tab.LookupRange(s.Col, lo, hi, s.LoIncl, s.HiIncl)
	}
	if !ok {
		return nil, fmt.Errorf("plan: index on %s.%s disappeared after planning",
			s.B.Meta.Name, s.Col)
	}
	return ids, nil
}
