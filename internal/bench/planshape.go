package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// PlanShape aggregates the operator mix the planner chose across a
// query set — how often it found an index access path, how many joins
// ran hashed versus cartesian, and how many predicates it pushed below
// a join. These counters make planner decisions visible in benchmark
// reports without diffing Explain trees by hand.
type PlanShape struct {
	Queries   int
	Operators map[string]int // plan.OperatorCounts keys, summed
	// PushedFilters counts filters below a join (pushdown wins);
	// residual filters above joins are Operators["filter"] minus this.
	PushedFilters int
}

// Add folds one plan into the shape counters.
func (s *PlanShape) Add(p *plan.Plan) {
	if s.Operators == nil {
		s.Operators = map[string]int{}
	}
	s.Queries++
	for op, n := range p.OperatorCounts() {
		s.Operators[op] += n
	}
	var walkPath func(n plan.Node, below bool)
	walkPath = func(n plan.Node, below bool) {
		if _, ok := n.(*plan.Filter); ok && below {
			s.PushedFilters++
		}
		_, isJoin := n.(*plan.HashJoin)
		if !isJoin {
			_, isJoin = n.(*plan.CrossJoin)
		}
		for _, c := range n.Children() {
			walkPath(c, below || isJoin)
		}
	}
	walkPath(p.Root, false)
}

// String renders the counters in deterministic order.
func (s *PlanShape) String() string {
	var ops []string
	for op := range s.Operators {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	parts := make([]string, 0, len(ops)+1)
	for _, op := range ops {
		parts = append(parts, fmt.Sprintf("%s=%d", op, s.Operators[op]))
	}
	parts = append(parts, fmt.Sprintf("pushed-filters=%d", s.PushedFilters))
	return fmt.Sprintf("%d queries: %s", s.Queries, strings.Join(parts, " "))
}

// PlanShapes compiles every gold query of the case set and aggregates
// the chosen operator shapes.
func PlanShapes(db *store.DB, cases []Case) (*PlanShape, error) {
	shape := &PlanShape{}
	for _, cs := range cases {
		stmt, err := sql.Parse(cs.Gold)
		if err != nil {
			return nil, fmt.Errorf("bench: gold for %s does not parse: %w", cs.ID, err)
		}
		p, err := exec.Compile(db.Snapshot(), stmt, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: gold for %s does not plan: %w", cs.ID, err)
		}
		shape.Add(p)
	}
	return shape, nil
}

// Speedup is one planned-versus-reference timing comparison.
type Speedup struct {
	Name      string
	Planned   time.Duration
	Reference time.Duration
}

// Factor is Reference/Planned (>1 means the planner won).
func (s Speedup) Factor() float64 {
	if s.Planned <= 0 {
		return 0
	}
	return float64(s.Reference) / float64(s.Planned)
}

// MeasureSpeedup times one query through the streaming planner path
// and the materializing reference path, averaging over reps.
func MeasureSpeedup(db *store.DB, name, query string, reps int) (Speedup, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return Speedup{}, err
	}
	run := func(f func() error) (time.Duration, error) {
		if err := f(); err != nil { // warm-up
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(reps), nil
	}
	planned, err := run(func() error { _, err := exec.Query(db.Snapshot(), stmt); return err })
	if err != nil {
		return Speedup{}, err
	}
	reference, err := run(func() error { _, err := exec.ReferenceQueryAt(db.Snapshot(), stmt); return err })
	if err != nil {
		return Speedup{}, err
	}
	return Speedup{Name: name, Planned: planned, Reference: reference}, nil
}
