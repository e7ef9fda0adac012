package exec

import (
	"fmt"
	"math"
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
		sum, err := exactSum(fc.Name, vals)
		if err != nil || fc.Name == "SUM" {
			return sum, err
		}
		f, _ := sum.AsFloat()
		return store.Float(f / float64(len(vals))), nil
	}
	return store.Value{}, fmt.Errorf("exec: unknown aggregate %q", fc.Name)
}

// sumPrec is the precision of the reference's float sums: every finite
// float64 is a multiple of 2^-1074 below 2^1024, so 2,200 bits hold the
// exact sum of up to 2^100 of them.
const sumPrec = 2200

// exactSum adds the non-NULL values of a SUM or AVG exactly. Integers
// add in big.Int, and their SUM fails when the total leaves int64. Any
// float makes the sum a FLOAT: the values add in big.Float, infinities
// and NaN apart (NaN, or both infinities, sum to NaN), and the total is
// rounded once to the nearest float64, an exact zero to +0.0 — the
// engine's order-free exact sum, so the two agree bit for bit however
// the engine split the rows.
func exactSum(fn string, vals []store.Value) (store.Value, error) {
	ints, floats := new(big.Int), new(big.Float).SetPrec(sumPrec)
	allInt, posInf, negInf, nan := true, false, false, false
	for _, v := range vals {
		switch v.Kind() {
		case store.KindInt:
			ints.Add(ints, big.NewInt(v.Int64()))
			continue
		case store.KindFloat:
		default:
			return store.Value{}, fmt.Errorf("exec: %s over non-numeric value %s", fn, v.Kind())
		}
		allInt = false
		switch f, _ := v.AsFloat(); {
		case math.IsNaN(f):
			nan = true
		case math.IsInf(f, 1):
			posInf = true
		case math.IsInf(f, -1):
			negInf = true
		default:
			floats.Add(floats, new(big.Float).SetFloat64(f))
		}
	}
	switch {
	case allInt && fn == "SUM":
		if !ints.IsInt64() {
			return store.Value{}, fmt.Errorf("exec: SUM overflows INT")
		}
		return store.Int(ints.Int64()), nil
	case nan || posInf && negInf:
		return store.Float(math.NaN()), nil
	case posInf:
		return store.Float(math.Inf(1)), nil
	case negInf:
		return store.Float(math.Inf(-1)), nil
	}
	f, _ := floats.Add(floats, new(big.Float).SetInt(ints)).Float64()
	return store.Float(f + 0), nil
}
