// Package sql implements the SQL subset of the system: an AST, a
// lexer, a recursive-descent parser and a canonical printer. The
// natural language pipeline *generates* this AST (via internal/iql) and
// the benchmark corpus *parses* gold queries with it; both sides then
// execute through internal/exec, so equivalence is checked on results,
// not on strings.
//
// Supported grammar (documented here as the single source of truth):
//
//	SELECT [DISTINCT] item [, item]...
//	FROM table [alias] [, table [alias]]...
//	[WHERE expr]
//	[GROUP BY expr [, expr]...]
//	[HAVING expr]
//	[ORDER BY expr [ASC|DESC] [, ...]]
//	[LIMIT n]
//
// with expressions over columns, literals, arithmetic, comparisons,
// AND/OR/NOT, IN (list | subquery), EXISTS, BETWEEN, LIKE, IS [NOT]
// NULL, scalar subqueries, and the aggregates COUNT/SUM/AVG/MIN/MAX
// (COUNT(*), COUNT(DISTINCT x)). Identifiers are ASCII,
// [A-Za-z_][A-Za-z0-9_]*, and lower-cased; keywords match in any case.
// A byte of 0x80 or above is an error anywhere but inside a string
// literal.
//
// The tree's structure — which children each node has — is known to
// three functions only: the printer (print.go), the read-only visitor
// Walk and the copying rewriter Parameterize uses (walk.go).
// Everything else asks one of them.
package sql

import "repro/internal/store"

// SelectStmt is a (possibly nested) SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// SelectItem is one projection.
type SelectItem struct {
	Star  bool // SELECT *
	Expr  Expr // nil when Star
	Alias string
}

// TableRef names a table in FROM, with optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the name the table is addressed by in the query.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is any SQL expression node.
type Expr interface {
	isExpr()
	String() string
}

// ColumnRef references a column, optionally qualified.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

// Literal is a constant value.
type Literal struct {
	Val store.Value
}

// Param is a bound-parameter slot: a constant lifted out of the
// statement by Parameterize, to be supplied through a parameter vector
// when the statement is bound for execution. Idx indexes that vector.
// Kind is the lifted constant's value kind and is part of the query's
// *shape* (see ShapeInto): compiled plans are reused only across
// bindings with identical kinds, which keeps every kind-dependent
// compilation decision — comparability, arithmetic result widths,
// vectorizability — stable no matter which values are later bound.
type Param struct {
	Idx  int
	Kind store.Kind
}

// BinOp is a binary operator.
type BinOp int

const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// IsComparison reports whether the operator compares values.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	X Expr
}

// NegExpr is unary minus.
type NegExpr struct {
	X Expr
}

// FuncCall is an aggregate invocation.
type FuncCall struct {
	Name     string // upper-case: COUNT, SUM, AVG, MIN, MAX
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Arg      Expr   // nil when Star
}

// InExpr is "x [NOT] IN (list)" or "x [NOT] IN (subquery)".
type InExpr struct {
	X       Expr
	List    []Expr      // nil when Sub is set
	Sub     *SelectStmt // nil when List is set
	Negated bool
}

// ExistsExpr is "[NOT] EXISTS (subquery)".
type ExistsExpr struct {
	Sub     *SelectStmt
	Negated bool
}

// SubqueryExpr is a scalar subquery usable as a value.
type SubqueryExpr struct {
	Sub *SelectStmt
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negated   bool
}

// LikeExpr is "x [NOT] LIKE pattern" with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Negated bool
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X       Expr
	Negated bool
}

func (ColumnRef) isExpr()     {}
func (Literal) isExpr()       {}
func (Param) isExpr()         {}
func (*BinaryExpr) isExpr()   {}
func (*NotExpr) isExpr()      {}
func (*NegExpr) isExpr()      {}
func (*FuncCall) isExpr()     {}
func (*InExpr) isExpr()       {}
func (*ExistsExpr) isExpr()   {}
func (*SubqueryExpr) isExpr() {}
func (*BetweenExpr) isExpr()  {}
func (*LikeExpr) isExpr()     {}
func (*IsNullExpr) isExpr()   {}

// Col is shorthand for a qualified column reference.
func Col(table, column string) ColumnRef { return ColumnRef{Table: table, Column: column} }

// Lit wraps a store value as a literal.
func Lit(v store.Value) Literal { return Literal{Val: v} }

// Number makes a numeric literal, using INT when v is integral.
func Number(v float64) Literal {
	if v == float64(int64(v)) {
		return Lit(store.Int(int64(v)))
	}
	return Lit(store.Float(v))
}

// Str makes a text literal.
func Str(s string) Literal { return Lit(store.Text(s)) }

// And conjoins expressions, dropping nils; returns nil when all are nil.
func And(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// Cmp builds a comparison.
func Cmp(op BinOp, l, r Expr) Expr { return &BinaryExpr{Op: op, L: l, R: r} }

// NewSelect returns an empty statement with Limit disabled.
func NewSelect() *SelectStmt { return &SelectStmt{Limit: -1} }
