package exec

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/strutil"
)

// Eval implements plan.Evaluator: scalar (non-aggregate) expression
// evaluation in a row frame.
func (ex *executor) Eval(f *plan.Frame, e sql.Expr) (store.Value, error) {
	return ex.eval(f, e)
}

// SubqueryRows implements plan.Evaluator: the rows of a one-column
// subquery under correlation parent f.
func (ex *executor) SubqueryRows(f *plan.Frame, sub *sql.SelectStmt) ([]store.Row, error) {
	res, err := ex.runSubquery(sub, f)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != 1 {
		return nil, fmt.Errorf("exec: IN subquery must return one column, got %d", len(res.Cols))
	}
	return res.Rows, nil
}

// eval evaluates a scalar (non-aggregate) expression in a row frame.
func (ex *executor) eval(f *plan.Frame, e sql.Expr) (store.Value, error) {
	switch n := e.(type) {
	case sql.ColumnRef:
		return resolveValue(f, n)
	case sql.Literal:
		return n.Val, nil
	case sql.Param:
		if n.Idx < 0 || n.Idx >= len(ex.opts.Params) {
			return store.Value{}, fmt.Errorf("exec: unbound parameter $%d", n.Idx+1)
		}
		return ex.opts.Params[n.Idx], nil
	case *sql.BinaryExpr:
		return ex.evalBinary(f, n)
	case *sql.NotExpr:
		v, err := ex.eval(f, n.X)
		if err != nil {
			return store.Value{}, err
		}
		if v.IsNull() {
			return store.Null(), nil
		}
		return store.Bool(!isTrue(v)), nil
	case *sql.NegExpr:
		v, err := ex.eval(f, n.X)
		if err != nil {
			return store.Value{}, err
		}
		if v.IsNull() {
			return store.Null(), nil
		}
		switch v.Kind() {
		case store.KindInt:
			return store.Int(-v.Int64()), nil
		case store.KindFloat:
			fl, _ := v.AsFloat()
			return store.Float(-fl), nil
		}
		return store.Value{}, fmt.Errorf("exec: cannot negate %s", v.Kind())
	case *sql.FuncCall:
		return store.Value{}, fmt.Errorf("exec: aggregate %s used outside GROUP BY context", n.Name)
	case *sql.InExpr:
		return ex.evalIn(f, n)
	case *sql.ExistsExpr:
		res, err := ex.runSubquery(n.Sub, f)
		if err != nil {
			return store.Value{}, err
		}
		has := len(res.Rows) > 0
		if n.Negated {
			has = !has
		}
		return store.Bool(has), nil
	case *sql.SubqueryExpr:
		return ex.scalarSubquery(n.Sub, f)
	case *sql.BetweenExpr:
		x, err := ex.eval(f, n.X)
		if err != nil {
			return store.Value{}, err
		}
		lo, err := ex.eval(f, n.Lo)
		if err != nil {
			return store.Value{}, err
		}
		hi, err := ex.eval(f, n.Hi)
		if err != nil {
			return store.Value{}, err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return store.Null(), nil
		}
		in := store.Compare(x, lo) >= 0 && store.Compare(x, hi) <= 0
		if n.Negated {
			in = !in
		}
		return store.Bool(in), nil
	case *sql.LikeExpr:
		x, err := ex.eval(f, n.X)
		if err != nil {
			return store.Value{}, err
		}
		pat, err := ex.eval(f, n.Pattern)
		if err != nil {
			return store.Value{}, err
		}
		if x.IsNull() || pat.IsNull() {
			return store.Null(), nil
		}
		m := matchLike(x.String(), pat.String())
		if n.Negated {
			m = !m
		}
		return store.Bool(m), nil
	case *sql.IsNullExpr:
		v, err := ex.eval(f, n.X)
		if err != nil {
			return store.Value{}, err
		}
		isNull := v.IsNull()
		if n.Negated {
			isNull = !isNull
		}
		return store.Bool(isNull), nil
	}
	return store.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
}

func (ex *executor) evalBinary(f *plan.Frame, n *sql.BinaryExpr) (store.Value, error) {
	switch n.Op {
	case sql.OpAnd, sql.OpOr:
		l, err := ex.eval(f, n.L)
		if err != nil {
			return store.Value{}, err
		}
		// Short circuit where 3VL permits.
		if n.Op == sql.OpAnd && !l.IsNull() && !isTrue(l) {
			return store.Bool(false), nil
		}
		if n.Op == sql.OpOr && isTrue(l) {
			return store.Bool(true), nil
		}
		r, err := ex.eval(f, n.R)
		if err != nil {
			return store.Value{}, err
		}
		if n.Op == sql.OpAnd {
			switch {
			case !r.IsNull() && !isTrue(r):
				return store.Bool(false), nil
			case l.IsNull() || r.IsNull():
				return store.Null(), nil
			}
			return store.Bool(true), nil
		}
		switch {
		case isTrue(r):
			return store.Bool(true), nil
		case l.IsNull() || r.IsNull():
			return store.Null(), nil
		}
		return store.Bool(false), nil
	}

	l, err := ex.eval(f, n.L)
	if err != nil {
		return store.Value{}, err
	}
	r, err := ex.eval(f, n.R)
	if err != nil {
		return store.Value{}, err
	}
	if n.Op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return store.Null(), nil
		}
		c := store.Compare(l, r)
		var out bool
		switch n.Op {
		case sql.OpEq:
			out = c == 0
		case sql.OpNe:
			out = c != 0
		case sql.OpLt:
			out = c < 0
		case sql.OpLe:
			out = c <= 0
		case sql.OpGt:
			out = c > 0
		case sql.OpGe:
			out = c >= 0
		}
		return store.Bool(out), nil
	}

	// Arithmetic.
	if l.IsNull() || r.IsNull() {
		return store.Null(), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return store.Value{}, fmt.Errorf("exec: arithmetic on non-numeric values %s, %s", l.Kind(), r.Kind())
	}
	bothInt := l.Kind() == store.KindInt && r.Kind() == store.KindInt
	switch n.Op {
	case sql.OpAdd:
		if bothInt {
			return store.Int(l.Int64() + r.Int64()), nil
		}
		return store.Float(lf + rf), nil
	case sql.OpSub:
		if bothInt {
			return store.Int(l.Int64() - r.Int64()), nil
		}
		return store.Float(lf - rf), nil
	case sql.OpMul:
		if bothInt {
			return store.Int(l.Int64() * r.Int64()), nil
		}
		return store.Float(lf * rf), nil
	case sql.OpDiv:
		if rf == 0 {
			return store.Null(), nil
		}
		return store.Float(lf / rf), nil
	}
	return store.Value{}, fmt.Errorf("exec: unsupported operator %v", n.Op)
}

func (ex *executor) evalIn(f *plan.Frame, n *sql.InExpr) (store.Value, error) {
	x, err := ex.eval(f, n.X)
	if err != nil {
		return store.Value{}, err
	}
	if x.IsNull() {
		return store.Null(), nil
	}
	var found, sawNull bool
	if n.Sub != nil {
		rows, err := ex.SubqueryRows(f, n.Sub)
		if err != nil {
			return store.Value{}, err
		}
		for _, row := range rows {
			if row[0].IsNull() {
				sawNull = true
				continue
			}
			if store.Equal(x, row[0]) {
				found = true
				break
			}
		}
	} else {
		for _, le := range n.List {
			v, err := ex.eval(f, le)
			if err != nil {
				return store.Value{}, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if store.Equal(x, v) {
				found = true
				break
			}
		}
	}
	if found {
		return store.Bool(!n.Negated), nil
	}
	if sawNull {
		return store.Null(), nil
	}
	return store.Bool(n.Negated), nil
}

// runSubquery executes sub with f as the correlation parent. Results
// are memoized only for subqueries proven uncorrelated; the early
// return is the guard: a correlated subquery never reaches the cache,
// so it is never served a result computed under a different outer row.
func (ex *executor) runSubquery(sub *sql.SelectStmt, f *plan.Frame) (*Result, error) {
	if ex.correlated(sub, f) {
		return ex.selectStmt(sub, f)
	}
	ex.mu.Lock()
	cached, ok := ex.subCache[sub]
	ex.mu.Unlock()
	if ok {
		return cached, nil
	}
	res, err := ex.selectStmt(sub, nil)
	if err != nil {
		return nil, err
	}
	ex.mu.Lock()
	ex.subCache[sub] = res
	ex.mu.Unlock()
	return res, nil
}

// correlated reports whether sub references an enclosing frame.
// Qualified references correlate when they name an outer binding not
// shadowed by an in-scope FROM clause; unqualified references
// correlate when no in-scope table has the column, since resolution
// would then climb the parent chain. Unknown references are treated as
// correlated, which is always safe — it only disables caching. The
// verdict is memoized per statement: within one execution, a given
// subquery node is always evaluated under frames of the same shape, so
// the analysis need not rerun per outer row.
func (ex *executor) correlated(sub *sql.SelectStmt, f *plan.Frame) bool {
	if f == nil {
		return false
	}
	ex.mu.Lock()
	v, ok := ex.corrCache[sub]
	ex.mu.Unlock()
	if ok {
		return v
	}
	outerNames := map[string]bool{}
	for cur := f; cur != nil; cur = cur.Parent {
		if cur.Rel == nil {
			continue
		}
		for _, b := range cur.Rel.Bindings {
			outerNames[b.Name] = true
		}
	}
	if len(outerNames) == 0 {
		return false
	}

	var stmtCorrelated func(s *sql.SelectStmt, scopes []map[string]*schema.Table) bool
	stmtCorrelated = func(s *sql.SelectStmt, scopes []map[string]*schema.Table) bool {
		local := map[string]*schema.Table{}
		for _, t := range s.From {
			if tab := ex.sn.Table(t.Table); tab != nil {
				local[t.Name()] = tab.Meta
			} else {
				local[t.Name()] = nil
			}
		}
		scopes = append(scopes, local)
		inScopeName := func(name string) bool {
			for _, sc := range scopes {
				if _, ok := sc[name]; ok {
					return true
				}
			}
			return false
		}
		inScopeColumn := func(col string) bool {
			for _, sc := range scopes {
				for _, meta := range sc {
					if meta != nil && meta.Column(col) != nil {
						return true
					}
				}
			}
			return false
		}

		corr := false
		sql.WalkStmt(s, func(e sql.Expr) bool {
			if corr {
				return false
			}
			if n, ok := e.(sql.ColumnRef); ok {
				corr = n.Table != "" && !inScopeName(n.Table) || n.Table == "" && !inScopeColumn(n.Column)
			} else if sub := sql.Nested(e); sub != nil {
				corr = stmtCorrelated(sub, scopes)
			}
			return !corr
		})
		return corr
	}
	v = stmtCorrelated(sub, nil)
	ex.mu.Lock()
	ex.corrCache[sub] = v
	ex.mu.Unlock()
	return v
}

func (ex *executor) scalarSubquery(sub *sql.SelectStmt, f *plan.Frame) (store.Value, error) {
	res, err := ex.runSubquery(sub, f)
	if err != nil {
		return store.Value{}, err
	}
	if len(res.Cols) != 1 {
		return store.Value{}, fmt.Errorf("exec: scalar subquery must return one column, got %d", len(res.Cols))
	}
	switch len(res.Rows) {
	case 0:
		return store.Null(), nil
	case 1:
		return res.Rows[0][0], nil
	}
	return store.Value{}, fmt.Errorf("exec: scalar subquery returned %d rows", len(res.Rows))
}

// resolveValue finds the value of a column reference, searching the
// current frame first and then the parent chain (correlation). A frame
// with no row is an operator's probe (see plan.Frame): the reference
// reads a row that is not there yet.
func resolveValue(f *plan.Frame, ref sql.ColumnRef) (store.Value, error) {
	for cur := f; cur != nil; cur = cur.Parent {
		off, ok, ambiguous := plan.OffsetIn(cur.Rel, ref)
		if ambiguous {
			return store.Value{}, fmt.Errorf("exec: ambiguous column %q", ref.String())
		}
		if ok && cur.Row == nil {
			return store.Value{}, fmt.Errorf("exec: column %q is read before its row", ref.String())
		}
		if ok {
			return cur.Row[off], nil
		}
	}
	return store.Value{}, fmt.Errorf("exec: unknown column %q", ref.String())
}

// matchLike implements SQL LIKE semantics; the algorithm lives in
// strutil so the vectorized LIKE kernel shares it.
func matchLike(s, pattern string) bool {
	return strutil.MatchLike(s, pattern)
}

func rowKey(r store.Row) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// FormatResult renders a result as an aligned text table for the REPL
// and examples.
func FormatResult(r *Result) string {
	if r == nil {
		return ""
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Cols {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(pad(c, widths[i]))
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(s, widths[i]))
		}
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
