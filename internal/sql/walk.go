package sql

// Walk calls visit on e and then, while visit returns true for a node,
// on that node's operands: parents before children, operands in print
// order. It walks one statement level: the statement nested in an IN,
// EXISTS or scalar subquery is not entered. Nested hands it to a caller
// that wants it, since whether it belongs to the question asked is the
// caller's call — ContainsAggregate must see an IN's operand but not
// its subquery's aggregates, while Tables reads every level.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *NotExpr:
		Walk(n.X, visit)
	case *NegExpr:
		Walk(n.X, visit)
	case *FuncCall:
		Walk(n.Arg, visit)
	case *InExpr:
		Walk(n.X, visit)
		for _, le := range n.List {
			Walk(le, visit)
		}
	case *BetweenExpr:
		Walk(n.X, visit)
		Walk(n.Lo, visit)
		Walk(n.Hi, visit)
	case *LikeExpr:
		Walk(n.X, visit)
		Walk(n.Pattern, visit)
	case *IsNullExpr:
		Walk(n.X, visit)
	}
}

// WalkStmt is Walk over every expression of s's own level: the select
// items, WHERE, GROUP BY, HAVING and ORDER BY, in print order.
func WalkStmt(s *SelectStmt, visit func(Expr) bool) {
	for _, it := range s.Items {
		Walk(it.Expr, visit)
	}
	Walk(s.Where, visit)
	for _, g := range s.GroupBy {
		Walk(g, visit)
	}
	Walk(s.Having, visit)
	for _, o := range s.OrderBy {
		Walk(o.Expr, visit)
	}
}

// Nested returns the statement nested in an IN, EXISTS or scalar
// subquery node, and nil for any other node (an IN over a list
// included).
func Nested(e Expr) *SelectStmt {
	switch n := e.(type) {
	case *InExpr:
		return n.Sub
	case *ExistsExpr:
		return n.Sub
	case *SubqueryExpr:
		return n.Sub
	}
	return nil
}

// rewriter is Parameterize's copy of a statement: at each node,
// parents first, f may return a replacement (r, true), which is used as
// is, its operands unvisited; otherwise the node is copied with its
// operands rewritten. It goes through nested statements, applying f at
// every level, so the copy shares no node with its input.
type rewriter struct {
	f func(Expr) (Expr, bool)
}

func (r *rewriter) stmt(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{Distinct: s.Distinct, Limit: s.Limit}
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = SelectItem{Star: it.Star, Alias: it.Alias, Expr: r.expr(it.Expr)}
	}
	out.From = append([]TableRef(nil), s.From...)
	out.Where = r.expr(s.Where)
	out.GroupBy = r.exprs(s.GroupBy)
	out.Having = r.expr(s.Having)
	if len(s.OrderBy) > 0 {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = OrderItem{Expr: r.expr(o.Expr), Desc: o.Desc}
		}
	}
	return out
}

func (r *rewriter) exprs(es []Expr) []Expr {
	if len(es) == 0 {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

func (r *rewriter) expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	if out, ok := r.f(e); ok {
		return out
	}
	switch n := e.(type) {
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, L: r.expr(n.L), R: r.expr(n.R)}
	case *NotExpr:
		return &NotExpr{X: r.expr(n.X)}
	case *NegExpr:
		return &NegExpr{X: r.expr(n.X)}
	case *FuncCall:
		return &FuncCall{Name: n.Name, Star: n.Star, Distinct: n.Distinct, Arg: r.expr(n.Arg)}
	case *InExpr:
		return &InExpr{X: r.expr(n.X), List: r.exprs(n.List), Sub: r.stmt(n.Sub), Negated: n.Negated}
	case *ExistsExpr:
		return &ExistsExpr{Sub: r.stmt(n.Sub), Negated: n.Negated}
	case *SubqueryExpr:
		return &SubqueryExpr{Sub: r.stmt(n.Sub)}
	case *BetweenExpr:
		return &BetweenExpr{X: r.expr(n.X), Lo: r.expr(n.Lo), Hi: r.expr(n.Hi), Negated: n.Negated}
	case *LikeExpr:
		return &LikeExpr{X: r.expr(n.X), Pattern: r.expr(n.Pattern), Negated: n.Negated}
	case *IsNullExpr:
		return &IsNullExpr{X: r.expr(n.X), Negated: n.Negated}
	}
	return e // ColumnRef, Literal and Param are values
}
