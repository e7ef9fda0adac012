// Package plan is the query-planning layer between SQL generation and
// the store: a logical-plan IR compiled from sql.SelectStmt with
// predicate pushdown, zone-map skips, column pruning and join ordering
// driven by row counts and the schema's keys (Compile), a vectorized
// batch-at-a-time executor (Run) and an Explain renderer.
//
// Plan runs one SQL dialect, the one iql.ToSQL writes, and only that:
// equi-joins, columns compared with constants, NOT, IN, LIKE and
// numeric BETWEEN, aggregates, DISTINCT, ORDER BY and LIMIT, and
// uncorrelated subqueries, each compiled with its statement as a plan
// of its own and run once a run. Everything else — a correlated
// subquery, a cartesian product, OR, arithmetic, IS NULL and the like
// — fails with ErrUnsupported. The reference executor in internal/exec
// evaluates those row by row; plan does not call into it.
package plan

import (
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// Binding maps one FROM-clause name onto a slot of the rows flowing
// through the plan: the table's schema, the offset of its first column
// and the retained (possibly pruned) column set.
type Binding struct {
	Name string        // alias or table name the query addresses it by
	Meta *schema.Table // underlying table schema
	Off  int           // offset of this binding's first value in the row
	Cols []int         // retained meta column indexes, in row order
}

// colPos returns the row-relative position of meta column index ci
// within the binding, or -1 when the column was pruned away.
func (b Binding) colPos(ci int) int {
	for p, c := range b.Cols {
		if c == ci {
			return p
		}
	}
	return -1
}

// Rel describes the shape of rows produced by a relational operator.
type Rel struct {
	Bindings []Binding
	Width    int
}

// OffsetIn resolves a column reference to an offset inside rel.
// ambiguous reports a reference matching more than one binding.
func OffsetIn(rel *Rel, ref sql.ColumnRef) (off int, ok, ambiguous bool) {
	if rel == nil {
		return 0, false, false
	}
	matches, found := 0, -1
	for _, b := range rel.Bindings {
		if ref.Table != "" && ref.Table != b.Name {
			continue
		}
		ci := indexOfColumn(b.Meta, ref.Column)
		if ci < 0 {
			continue
		}
		matches++
		if matches > 1 {
			return 0, false, true
		}
		if p := b.colPos(ci); p >= 0 {
			found = b.Off + p
		}
	}
	if found < 0 {
		return 0, false, false
	}
	return found, true, false
}

func indexOfColumn(meta *schema.Table, col string) int {
	for i := range meta.Columns {
		if meta.Columns[i].Name == col {
			return i
		}
	}
	return -1
}

// IsTrue collapses three-valued logic to acceptance: only an exact
// boolean TRUE accepts a row.
func IsTrue(v store.Value) bool {
	return v.Kind() == store.KindBool && v.BoolVal()
}

// Node is one operator of the logical plan tree.
type Node interface {
	// Rel is the binding shape of emitted rows; nil for operators
	// above the projection boundary (Project/Aggregate and up), whose
	// rows are output values, not table slots.
	Rel() *Rel
	Children() []Node
	// vopen starts the operator's batch iterator in ctx.
	vopen(ctx *Ctx) (viter, error)
	// describe renders the operator's Explain line (without tree art).
	describe() string
}

// Scan reads every row of one table, projected to retained columns.
type Scan struct {
	B   Binding
	Est int // estimated output rows
	// SegN/SegSkip are the segment count and the segments the Filter
	// above refutes under the values the plan was compiled with,
	// reported by Explain. A run's skips are its own (Scan.open).
	SegN, SegSkip int
	rel           *Rel
}

// Filter keeps rows for which Pred evaluates to exactly TRUE.
type Filter struct {
	In   Node
	Pred sql.Expr
	Est  int
}

// HashJoin equi-joins two inputs: the right (build) side is hashed on
// RKey, the left (probe) side streams. The optimizer lays the input it
// estimates smaller on the right. Conds holds the consumed conjuncts
// for Explain.
type HashJoin struct {
	L, R  Node
	LKey  []int // offsets into left rows
	RKey  []int // offsets into right rows
	Conds []sql.Expr
	Est   int
	rel   *Rel
	live  []bool // output columns the operators above read (markLive); nil: all
}

// Project evaluates the select items (plus trailing ORDER BY keys) for
// each input row, crossing from table slots to output values.
type Project struct {
	In       Node
	Items    []sql.Expr
	SortKeys []sql.Expr // appended after Items for a downstream Sort
}

// Aggregate partitions input rows into groups, filters them with
// HAVING and evaluates the select items (plus trailing ORDER BY keys)
// per group. Workers is the degree Parallelize gave it (0: it folds
// serially) and part the scan its workers split into morsels.
type Aggregate struct {
	In       Node
	GroupBy  []sql.Expr
	Having   sql.Expr // nil when absent
	Items    []sql.Expr
	SortKeys []sql.Expr
	Workers  int
	part     *Scan
}

// Distinct drops rows whose first N values repeat an earlier row.
type Distinct struct {
	In Node
	N  int // dedup prefix length (the select items)
}

// Sort orders rows by the trailing len(Keys) values and strips them,
// leaving Keep values per row.
type Sort struct {
	In   Node
	Keys []sql.OrderItem
	Keep int
}

// Limit stops after N rows (N >= 0).
type Limit struct {
	In Node
	N  int
}

func (s *Scan) Rel() *Rel      { return s.rel }
func (f *Filter) Rel() *Rel    { return f.In.Rel() }
func (j *HashJoin) Rel() *Rel  { return j.rel }
func (p *Project) Rel() *Rel   { return nil }
func (a *Aggregate) Rel() *Rel { return nil }
func (d *Distinct) Rel() *Rel  { return nil }
func (s *Sort) Rel() *Rel      { return nil }
func (l *Limit) Rel() *Rel     { return nil }

func (s *Scan) Children() []Node      { return nil }
func (f *Filter) Children() []Node    { return []Node{f.In} }
func (j *HashJoin) Children() []Node  { return []Node{j.L, j.R} }
func (p *Project) Children() []Node   { return []Node{p.In} }
func (a *Aggregate) Children() []Node { return []Node{a.In} }
func (d *Distinct) Children() []Node  { return []Node{d.In} }
func (s *Sort) Children() []Node      { return []Node{s.In} }
func (l *Limit) Children() []Node     { return []Node{l.In} }

// Plan is a compiled query: the operator tree plus output column names.
// Par records the worker degree Parallelize rewrote the tree for
// (0 or 1 means serial).
type Plan struct {
	Root Node
	Cols []string
	Par  int

	subs []subquery // the statement's subqueries, in the order its expressions name them
}

// subquery is one uncorrelated subquery of a statement, compiled with
// it: its own serial plan, or the error compiling it met, which the
// statement raises where it needs the value, as the reference executor
// does when it first runs the subquery.
type subquery struct {
	stmt *sql.SelectStmt
	plan *Plan
	err  error
}

// Walk visits every node of the tree in pre-order.
func Walk(n Node, visit func(Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// OperatorCounts tallies the plan's node kinds ("scan", "filter",
// "hash-join", ...): the plan-shape counters the executor's tests
// compare plans by.
func (p *Plan) OperatorCounts() map[string]int {
	counts := map[string]int{}
	Walk(p.Root, func(n Node) {
		switch n.(type) {
		case *Scan:
			counts["scan"]++
		case *Filter:
			counts["filter"]++
		case *HashJoin:
			counts["hash-join"]++
		case *Project:
			counts["project"]++
		case *Aggregate:
			counts["aggregate"]++
		case *Distinct:
			counts["distinct"]++
		case *Sort:
			counts["sort"]++
		case *Limit:
			counts["limit"]++
		}
	})
	return counts
}

// relFor builds the single-binding Rel of a scan over b.
func relFor(b Binding) *Rel {
	return &Rel{Bindings: []Binding{b}, Width: len(b.Cols)}
}

// joinRel concatenates two row shapes, shifting the right bindings.
func joinRel(l, r *Rel) *Rel {
	out := &Rel{Width: l.Width + r.Width}
	out.Bindings = append(out.Bindings, l.Bindings...)
	for _, b := range r.Bindings {
		b.Off += l.Width
		out.Bindings = append(out.Bindings, b)
	}
	return out
}
