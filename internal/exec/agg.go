package exec

import (
	"fmt"
	"math/big"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// group is a set of rows sharing GROUP BY key values, the reference
// executor's evaluation context for aggregate expressions.
type group struct {
	rel    *plan.Rel
	rows   []store.Row
	parent *plan.Frame
}

// rep returns a frame over the group's first row, used for evaluating
// grouped (non-aggregate) expressions. An empty group (the global
// aggregate over empty input) yields an all-NULL row.
func (g *group) rep() *plan.Frame {
	var row store.Row
	if len(g.rows) > 0 {
		row = g.rows[0]
	} else {
		row = make(store.Row, g.rel.Width)
	}
	return &plan.Frame{Rel: g.rel, Row: row, Parent: g.parent}
}

// evalGroup evaluates an expression in group context: aggregate calls
// fold over the group's rows, everything else evaluates on the
// representative row.
func (ex *executor) evalGroup(g *group, e sql.Expr) (store.Value, error) {
	switch n := e.(type) {
	case *sql.FuncCall:
		return ex.evalAggregate(g, n)
	case *sql.BinaryExpr:
		if plan.ContainsAggregate(n.L) || plan.ContainsAggregate(n.R) {
			l, err := ex.evalGroup(g, n.L)
			if err != nil {
				return store.Value{}, err
			}
			r, err := ex.evalGroup(g, n.R)
			if err != nil {
				return store.Value{}, err
			}
			// Re-run the operator logic on pre-computed operands.
			return ex.evalBinary(g.rep(), &sql.BinaryExpr{
				Op: n.Op, L: sql.Lit(l), R: sql.Lit(r),
			})
		}
	case *sql.NotExpr:
		if plan.ContainsAggregate(n.X) {
			v, err := ex.evalGroup(g, n.X)
			if err != nil {
				return store.Value{}, err
			}
			if v.IsNull() {
				return store.Null(), nil
			}
			return store.Bool(!isTrue(v)), nil
		}
	case *sql.NegExpr:
		if plan.ContainsAggregate(n.X) {
			v, err := ex.evalGroup(g, n.X)
			if err != nil {
				return store.Value{}, err
			}
			return ex.eval(g.rep(), &sql.NegExpr{X: sql.Lit(v)})
		}
	}
	return ex.eval(g.rep(), e)
}

func (ex *executor) evalAggregate(g *group, fc *sql.FuncCall) (store.Value, error) {
	if fc.Star {
		if fc.Name != "COUNT" {
			return store.Value{}, fmt.Errorf("exec: %s(*) is not valid", fc.Name)
		}
		return store.Int(int64(len(g.rows))), nil
	}
	var vals []store.Value
	seen := map[string]bool{}
	f := &plan.Frame{Rel: g.rel, Parent: g.parent}
	for _, r := range g.rows {
		f.Row = r
		v, err := ex.eval(f, fc.Arg)
		if err != nil {
			return store.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch fc.Name {
	case "COUNT":
		return store.Int(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return store.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := store.Compare(v, best)
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return store.Null(), nil
		}
		// Integers add exactly, in big arithmetic; floats in float64.
		sum, exact := 0.0, new(big.Int)
		allInt := true
		for _, v := range vals {
			fv, ok := v.AsFloat()
			if !ok {
				return store.Value{}, fmt.Errorf("exec: %s over non-numeric value %s", fc.Name, v.Kind())
			}
			if v.Kind() != store.KindInt {
				allInt = false
			}
			sum += fv
			exact.Add(exact, big.NewInt(v.Int64()))
		}
		if allInt {
			sum, _ = new(big.Float).SetInt(exact).Float64()
		}
		switch {
		case fc.Name == "AVG":
			return store.Float(sum / float64(len(vals))), nil
		case !allInt:
			return store.Float(sum), nil
		case !exact.IsInt64():
			return store.Value{}, fmt.Errorf("exec: SUM overflows INT")
		}
		return store.Int(exact.Int64()), nil
	}
	return store.Value{}, fmt.Errorf("exec: unknown aggregate %q", fc.Name)
}
