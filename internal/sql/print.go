package sql

import (
	"strconv"

	"repro/internal/store"
)

// printer writes canonical SQL, the one place that knows how each node
// prints. String and ShapeInto both write through it; they differ only
// in lift, under which every non-NULL literal prints as the next
// parameter slot and its value is appended to params instead — the
// shape form the plan cache keys on (Parameterize lifts the same
// literals in the same order). A Param prints as its slot either way.
//
// The print is injective on the trees Parse builds: Parse(s.String())
// is deeply equal to s.
type printer struct {
	buf    []byte
	lift   bool
	params []store.Value
}

func (c ColumnRef) String() string     { return exprString(c) }
func (l Literal) String() string       { return exprString(l) }
func (p Param) String() string         { return exprString(p) }
func (b *BinaryExpr) String() string   { return exprString(b) }
func (n *NotExpr) String() string      { return exprString(n) }
func (n *NegExpr) String() string      { return exprString(n) }
func (f *FuncCall) String() string     { return exprString(f) }
func (i *InExpr) String() string       { return exprString(i) }
func (e *ExistsExpr) String() string   { return exprString(e) }
func (s *SubqueryExpr) String() string { return exprString(s) }
func (b *BetweenExpr) String() string  { return exprString(b) }
func (l *LikeExpr) String() string     { return exprString(l) }
func (i *IsNullExpr) String() string   { return exprString(i) }

// String renders the statement as canonical SQL.
func (s *SelectStmt) String() string {
	var p printer
	p.stmt(s)
	return string(p.buf)
}

func exprString(e Expr) string {
	var p printer
	p.expr(e, false)
	return string(p.buf)
}

func (p *printer) str(s string) { p.buf = append(p.buf, s...) }

// sep writes s before every list element but the first.
func (p *printer) sep(i int, s string) {
	if i > 0 {
		p.str(s)
	}
}

func (p *printer) stmt(s *SelectStmt) {
	p.str("SELECT ")
	if s.Distinct {
		p.str("DISTINCT ")
	}
	for i, it := range s.Items {
		p.sep(i, ", ")
		if it.Star {
			p.str("*")
			continue
		}
		p.expr(it.Expr, false)
		if it.Alias != "" {
			p.str(" AS ")
			p.str(it.Alias)
		}
	}
	p.str(" FROM ")
	for i, t := range s.From {
		p.sep(i, ", ")
		p.str(t.Table)
		if t.Alias != "" {
			p.str(" ")
			p.str(t.Alias)
		}
	}
	if s.Where != nil {
		p.str(" WHERE ")
		p.expr(s.Where, false)
	}
	for i, g := range s.GroupBy {
		p.str(pick(i == 0, " GROUP BY ", ", "))
		p.expr(g, false)
	}
	if s.Having != nil {
		p.str(" HAVING ")
		p.expr(s.Having, false)
	}
	for i, o := range s.OrderBy {
		p.str(pick(i == 0, " ORDER BY ", ", "))
		p.expr(o.Expr, false)
		if o.Desc {
			p.str(" DESC")
		}
	}
	if s.Limit >= 0 {
		p.str(" LIMIT ")
		p.buf = strconv.AppendInt(p.buf, int64(s.Limit), 10)
	}
}

// expr prints e. operand says e is an operand of a comparison or of
// arithmetic (unary minus included), or the operand, bound, pattern or
// list element of a predicate node — BETWEEN, LIKE, IS [NOT] NULL,
// [NOT] IN, [NOT] EXISTS. A predicate node there is parenthesized:
// the parser reads those operands at the additive level, and a
// predicate never continues into another, so unwrapped it would
// re-parse as a different tree or not at all.
func (p *printer) expr(e Expr, operand bool) {
	switch n := e.(type) {
	case ColumnRef:
		if n.Table != "" {
			p.str(n.Table)
			p.str(".")
		}
		p.str(n.Column)
	case Literal:
		switch {
		case p.lift && !n.Val.IsNull():
			p.params = append(p.params, n.Val)
			p.slot(len(p.params) - 1)
		case n.Val.Kind() == store.KindText:
			p.quote(n.Val.Str())
		default:
			p.str(n.Val.String())
		}
	case Param:
		p.slot(n.Idx)
	case *BinaryExpr:
		arith := n.Op != OpAnd && n.Op != OpOr
		p.str("(")
		p.expr(n.L, arith)
		p.str(" ")
		p.str(n.Op.String())
		p.str(" ")
		p.expr(n.R, arith)
		p.str(")")
	case *NotExpr:
		p.str("(NOT ")
		p.expr(n.X, false)
		p.str(")")
	case *NegExpr:
		p.str("(-")
		p.expr(n.X, true)
		p.str(")")
	case *FuncCall:
		p.str(n.Name)
		switch {
		case n.Star:
			p.str("(*)")
			return
		case n.Distinct:
			p.str("(DISTINCT ")
		default:
			p.str("(")
		}
		p.expr(n.Arg, false)
		p.str(")")
	case *InExpr:
		p.str(pick(operand, "(", ""))
		p.expr(n.X, true)
		p.str(pick(n.Negated, " NOT IN (", " IN ("))
		if n.Sub != nil {
			p.stmt(n.Sub)
		} else {
			for i, le := range n.List {
				p.sep(i, ", ")
				p.expr(le, true)
			}
		}
		p.str(")")
		p.str(pick(operand, ")", ""))
	case *ExistsExpr:
		p.str(pick(operand, "(", ""))
		p.str(pick(n.Negated, "NOT EXISTS (", "EXISTS ("))
		p.stmt(n.Sub)
		p.str(")")
		p.str(pick(operand, ")", ""))
	case *SubqueryExpr:
		p.str("(")
		p.stmt(n.Sub)
		p.str(")")
	case *BetweenExpr:
		p.str(pick(operand, "(", ""))
		p.expr(n.X, true)
		p.str(pick(n.Negated, " NOT BETWEEN ", " BETWEEN "))
		p.expr(n.Lo, true)
		p.str(" AND ")
		p.expr(n.Hi, true)
		p.str(pick(operand, ")", ""))
	case *LikeExpr:
		p.str(pick(operand, "(", ""))
		p.expr(n.X, true)
		p.str(pick(n.Negated, " NOT LIKE ", " LIKE "))
		p.expr(n.Pattern, true)
		p.str(pick(operand, ")", ""))
	case *IsNullExpr:
		p.str(pick(operand, "(", ""))
		p.expr(n.X, true)
		p.str(pick(n.Negated, " IS NOT NULL", " IS NULL"))
		p.str(pick(operand, ")", ""))
	}
}

// slot prints parameter slot idx as $idx+1.
func (p *printer) slot(idx int) {
	p.str("$")
	p.buf = strconv.AppendInt(p.buf, int64(idx+1), 10)
}

// quote prints s as a string literal, doubling its quotes.
func (p *printer) quote(s string) {
	p.str("'")
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			p.str("'")
		}
		p.buf = append(p.buf, s[i])
	}
	p.str("'")
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}
