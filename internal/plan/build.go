package plan

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/store"
)

// bindFrom resolves the FROM clause into full-width bindings.
func bindFrom(sn *store.Snapshot, stmt *sql.SelectStmt) ([]Binding, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("plan: query has no FROM clause")
	}
	var bindings []Binding
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		tab := sn.Table(ref.Table)
		if tab == nil {
			return nil, fmt.Errorf("plan: unknown table %q", ref.Table)
		}
		name := ref.Name()
		if seen[name] {
			return nil, fmt.Errorf("plan: duplicate table name %q in FROM", name)
		}
		seen[name] = true
		cols := make([]int, len(tab.Meta.Columns))
		for i := range cols {
			cols[i] = i
		}
		bindings = append(bindings, Binding{Name: name, Meta: tab.Meta, Cols: cols})
	}
	return bindings, nil
}

// condOffsets resolves an equi-join conjunct with one side in lrel and
// the other in rrel, in either orientation. Ambiguous references
// disqualify the conjunct (it stays a plain filter predicate).
func condOffsets(lrel, rrel *Rel, c EquiJoin) (lo, ro int, ok bool) {
	if lo, ok, amb := OffsetIn(lrel, c.L); ok && !amb {
		if ro, ok2, amb2 := OffsetIn(rrel, c.R); ok2 && !amb2 {
			return lo, ro, true
		}
	}
	if lo, ok, amb := OffsetIn(lrel, c.R); ok && !amb {
		if ro, ok2, amb2 := OffsetIn(rrel, c.L); ok2 && !amb2 {
			return lo, ro, true
		}
	}
	return 0, 0, false
}

// finishPlan stacks the output operators on top of the relational
// subtree. Items expand
// against outRel, which lists bindings in FROM declaration order so
// SELECT * column order is independent of join reordering.
func finishPlan(root Node, outRel *Rel, stmt *sql.SelectStmt) (*Plan, error) {
	items, cols, err := ExpandItems(stmt, outRel)
	if err != nil {
		return nil, err
	}
	sortKeys := SubstituteAliases(stmt, items)

	if Aggregated(stmt) {
		for _, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
		}
		root = &Aggregate{In: root, GroupBy: stmt.GroupBy, Having: stmt.Having,
			Items: items, SortKeys: sortKeys}
	} else {
		root = &Project{In: root, Items: items, SortKeys: sortKeys}
	}
	if stmt.Distinct {
		root = &Distinct{In: root, N: len(items)}
	}
	if len(stmt.OrderBy) > 0 {
		root = &Sort{In: root, Keys: stmt.OrderBy, Keep: len(items)}
	}
	if stmt.Limit >= 0 {
		root = &Limit{In: root, N: stmt.Limit}
	}
	return &Plan{Root: root, Cols: cols}, nil
}

// EquiJoin is one "a.x = b.y" conjunct.
type EquiJoin struct {
	L, R sql.ColumnRef
	Expr sql.Expr
}

// EquiJoinConds extracts top-level AND-ed equality conjuncts between
// two column references.
func EquiJoinConds(e sql.Expr) []EquiJoin {
	var out []EquiJoin
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		be, ok := e.(*sql.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case sql.OpAnd:
			walk(be.L)
			walk(be.R)
		case sql.OpEq:
			lc, lok := be.L.(sql.ColumnRef)
			rc, rok := be.R.(sql.ColumnRef)
			if lok && rok {
				out = append(out, EquiJoin{L: lc, R: rc, Expr: be})
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// conjuncts splits top-level ANDs into a flat predicate list.
func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return append(conjuncts(be.L), conjuncts(be.R)...)
	}
	return []sql.Expr{e}
}

// Aggregated reports whether stmt needs group evaluation: explicit
// GROUP BY, a HAVING clause, or any aggregate in the select list or
// ORDER BY.
func Aggregated(stmt *sql.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return true
	}
	for _, it := range stmt.Items {
		if !it.Star && ContainsAggregate(it.Expr) {
			return true
		}
	}
	for _, o := range stmt.OrderBy {
		if ContainsAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// ContainsAggregate reports whether e contains an aggregate call
// outside of nested subqueries (whose aggregates belong to the
// subquery).
func ContainsAggregate(e sql.Expr) bool {
	switch n := e.(type) {
	case nil:
		return false
	case *sql.FuncCall:
		return true
	case *sql.BinaryExpr:
		return ContainsAggregate(n.L) || ContainsAggregate(n.R)
	case *sql.NotExpr:
		return ContainsAggregate(n.X)
	case *sql.NegExpr:
		return ContainsAggregate(n.X)
	case *sql.InExpr:
		if ContainsAggregate(n.X) {
			return true
		}
		for _, le := range n.List {
			if ContainsAggregate(le) {
				return true
			}
		}
		return false
	case *sql.BetweenExpr:
		return ContainsAggregate(n.X) || ContainsAggregate(n.Lo) || ContainsAggregate(n.Hi)
	case *sql.LikeExpr:
		return ContainsAggregate(n.X) || ContainsAggregate(n.Pattern)
	case *sql.IsNullExpr:
		return ContainsAggregate(n.X)
	}
	return false
}

// ExpandItems resolves SELECT items (expanding *) into expressions and
// output column names over the given row shape.
func ExpandItems(stmt *sql.SelectStmt, rel *Rel) ([]sql.Expr, []string, error) {
	var items []sql.Expr
	var cols []string
	for _, it := range stmt.Items {
		if it.Star {
			for _, b := range rel.Bindings {
				for _, c := range b.Meta.Columns {
					items = append(items, sql.ColumnRef{Table: b.Name, Column: c.Name})
					if len(rel.Bindings) > 1 {
						cols = append(cols, b.Name+"."+c.Name)
					} else {
						cols = append(cols, c.Name)
					}
				}
			}
			continue
		}
		items = append(items, it.Expr)
		cols = append(cols, itemName(it))
	}
	return items, cols, nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(sql.ColumnRef); ok {
		return c.Column
	}
	return it.Expr.String()
}

// SubstituteAliases maps ORDER BY expressions, replacing references to
// select-list aliases with the aliased expressions.
func SubstituteAliases(stmt *sql.SelectStmt, items []sql.Expr) []sql.Expr {
	if len(stmt.OrderBy) == 0 {
		return nil
	}
	aliases := map[string]sql.Expr{}
	for i, it := range stmt.Items {
		if !it.Star && it.Alias != "" {
			aliases[it.Alias] = items[i]
		}
	}
	out := make([]sql.Expr, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		e := o.Expr
		if c, ok := e.(sql.ColumnRef); ok && c.Table == "" {
			if sub, ok := aliases[c.Column]; ok {
				e = sub
			}
		}
		out[i] = e
	}
	return out
}

// WalkExprs visits every expression in the statement, including nested
// subqueries.
func WalkExprs(s *sql.SelectStmt, visit func(sql.Expr)) {
	var walkE func(sql.Expr)
	walkE = func(e sql.Expr) {
		if e == nil {
			return
		}
		visit(e)
		switch n := e.(type) {
		case *sql.BinaryExpr:
			walkE(n.L)
			walkE(n.R)
		case *sql.NotExpr:
			walkE(n.X)
		case *sql.NegExpr:
			walkE(n.X)
		case *sql.FuncCall:
			walkE(n.Arg)
		case *sql.InExpr:
			walkE(n.X)
			for _, le := range n.List {
				walkE(le)
			}
			if n.Sub != nil {
				WalkExprs(n.Sub, visit)
			}
		case *sql.ExistsExpr:
			WalkExprs(n.Sub, visit)
		case *sql.SubqueryExpr:
			WalkExprs(n.Sub, visit)
		case *sql.BetweenExpr:
			walkE(n.X)
			walkE(n.Lo)
			walkE(n.Hi)
		case *sql.LikeExpr:
			walkE(n.X)
			walkE(n.Pattern)
		case *sql.IsNullExpr:
			walkE(n.X)
		}
	}
	for _, it := range s.Items {
		if !it.Star {
			walkE(it.Expr)
		}
	}
	walkE(s.Where)
	for _, g := range s.GroupBy {
		walkE(g)
	}
	walkE(s.Having)
	for _, o := range s.OrderBy {
		walkE(o.Expr)
	}
}

// containsSubquery reports whether e contains any nested SELECT.
func containsSubquery(e sql.Expr) bool {
	found := false
	var walkE func(sql.Expr)
	walkE = func(e sql.Expr) {
		switch n := e.(type) {
		case nil:
		case *sql.BinaryExpr:
			walkE(n.L)
			walkE(n.R)
		case *sql.NotExpr:
			walkE(n.X)
		case *sql.NegExpr:
			walkE(n.X)
		case *sql.FuncCall:
			walkE(n.Arg)
		case *sql.InExpr:
			if n.Sub != nil {
				found = true
			}
			walkE(n.X)
			for _, le := range n.List {
				walkE(le)
			}
		case *sql.ExistsExpr:
			found = true
		case *sql.SubqueryExpr:
			found = true
		case *sql.BetweenExpr:
			walkE(n.X)
			walkE(n.Lo)
			walkE(n.Hi)
		case *sql.LikeExpr:
			walkE(n.X)
			walkE(n.Pattern)
		case *sql.IsNullExpr:
			walkE(n.X)
		}
	}
	walkE(e)
	return found
}
