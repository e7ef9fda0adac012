package exec

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// ReferenceQueryAt evaluates stmt with the pre-planner strategy the
// seed executor used: FROM-order left-deep joins (hash joins on
// equi-join conjuncts found in WHERE, bounded cartesian products
// otherwise) that materialize the full join product, with the complete
// WHERE predicate re-applied to every joined row. It exists as the
// differential-testing baseline for the planner and as the yardstick
// its speedups are measured against; subqueries encountered along the
// way also run through this path. Like Query, the whole evaluation
// reads the one pinned snapshot.
func ReferenceQueryAt(sn *store.Snapshot, stmt *sql.SelectStmt) (*Result, error) {
	return newExecutor(sn).referenceSelect(stmt, nil)
}

// executor is the reference executor: it evaluates every expression
// row by row (eval), runs nested subqueries, correlated ones included,
// and memoizes the results of those proven uncorrelated. It holds the
// query's pinned snapshot, so the outer query and every subquery read
// the same data version.
type executor struct {
	sn        *store.Snapshot
	subCache  map[*sql.SelectStmt]*Result // uncorrelated subquery results
	corrCache map[*sql.SelectStmt]bool    // memoized correlation verdicts
}

func newExecutor(sn *store.Snapshot) *executor {
	return &executor{
		sn:        sn,
		subCache:  map[*sql.SelectStmt]*Result{},
		corrCache: map[*sql.SelectStmt]bool{},
	}
}

// frame is one row in evaluation context, with a parent chain for
// correlated subqueries.
type frame struct {
	Rel    *plan.Rel
	Row    store.Row
	Parent *frame
}

// matRel is a materialized relation: a row shape plus all its rows.
type matRel struct {
	rel  *plan.Rel
	rows []store.Row
}

func (ex *executor) referenceSelect(stmt *sql.SelectStmt, parent *frame) (*Result, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("exec: query has no FROM clause")
	}
	mr, err := ex.buildRelation(stmt)
	if err != nil {
		return nil, err
	}
	if plan.Aggregated(stmt) {
		return ex.referenceAggregate(stmt, mr, parent)
	}
	return ex.referencePlain(stmt, mr, parent)
}

// buildRelation joins the FROM tables in declaration order (connected
// tables first), fully materializing each intermediate result.
func (ex *executor) buildRelation(stmt *sql.SelectStmt) (*matRel, error) {
	var bindings []plan.Binding
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		tab := ex.sn.Table(ref.Table)
		if tab == nil {
			return nil, fmt.Errorf("exec: unknown table %q", ref.Table)
		}
		name := ref.Name()
		if seen[name] {
			return nil, fmt.Errorf("exec: duplicate table name %q in FROM", name)
		}
		seen[name] = true
		cols := make([]int, len(tab.Meta.Columns))
		for i := range cols {
			cols[i] = i
		}
		bindings = append(bindings, plan.Binding{Name: name, Meta: tab.Meta, Cols: cols})
	}

	conds := plan.EquiJoinConds(stmt.Where)
	order := refJoinOrder(bindings, conds)

	var mr *matRel
	for _, bi := range order {
		b := bindings[bi]
		rows := ex.sn.Table(b.Meta.Name).Rows()
		if mr == nil {
			b.Off = 0
			mr = &matRel{
				rel:  &plan.Rel{Bindings: []plan.Binding{b}, Width: len(b.Meta.Columns)},
				rows: rows,
			}
			continue
		}
		var err error
		if mr, err = joinOne(mr, b, rows, conds); err != nil {
			return nil, err
		}
	}
	return mr, nil
}

// refJoinOrder returns binding indexes in an order where each table
// after the first is connected by an equi-join to the already-placed
// ones when possible, minimizing cartesian products.
func refJoinOrder(bindings []plan.Binding, conds []plan.EquiJoin) []int {
	n := len(bindings)
	placed := make([]bool, n)
	order := []int{0}
	placed[0] = true
	owns := func(bi int, ref sql.ColumnRef) bool {
		b := bindings[bi]
		if ref.Table != "" {
			return ref.Table == b.Name
		}
		return b.Meta.Column(ref.Column) != nil
	}
	connected := func(bi int) bool {
		for _, c := range conds {
			for _, pi := range order {
				if (owns(pi, c.L) && owns(bi, c.R)) || (owns(pi, c.R) && owns(bi, c.L)) {
					return true
				}
			}
		}
		return false
	}
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if !placed[i] && connected(i) {
				next = i
				break
			}
		}
		if next == -1 {
			for i := 0; i < n; i++ {
				if !placed[i] {
					next = i
					break
				}
			}
		}
		placed[next] = true
		order = append(order, next)
	}
	return order
}

// joinOne joins mr with table b, hash-joining when an extracted
// equi-join connects them, and materializes the result.
func joinOne(mr *matRel, b plan.Binding, newRows []store.Row, conds []plan.EquiJoin) (*matRel, error) {
	b.Off = mr.rel.Width
	outRel := &plan.Rel{
		Bindings: append(append([]plan.Binding{}, mr.rel.Bindings...), b),
		Width:    mr.rel.Width + len(b.Meta.Columns),
	}
	out := &matRel{rel: outRel}

	// Find a usable equi-join: one side resolvable in mr, other in b.
	leftOff, rightIdx := -1, -1
	bRel := &plan.Rel{Bindings: []plan.Binding{{Name: b.Name, Meta: b.Meta, Cols: b.Cols}}, Width: len(b.Meta.Columns)}
	for _, c := range conds {
		if lo, ok, amb := plan.OffsetIn(mr.rel, c.L); ok && !amb {
			if ri, ok2, amb2 := plan.OffsetIn(bRel, c.R); ok2 && !amb2 {
				leftOff, rightIdx = lo, ri
				break
			}
		}
		if lo, ok, amb := plan.OffsetIn(mr.rel, c.R); ok && !amb {
			if ri, ok2, amb2 := plan.OffsetIn(bRel, c.L); ok2 && !amb2 {
				leftOff, rightIdx = lo, ri
				break
			}
		}
	}

	if leftOff >= 0 {
		// Hash join: build on the new table, probe from mr.
		index := make(map[string][]store.Row, len(newRows))
		for _, nr := range newRows {
			v := nr[rightIdx]
			if v.IsNull() {
				continue
			}
			index[v.Key()] = append(index[v.Key()], nr)
		}
		for _, lr := range mr.rows {
			v := lr[leftOff]
			if v.IsNull() {
				continue
			}
			for _, nr := range index[v.Key()] {
				out.rows = append(out.rows, concatRefRow(lr, nr, outRel.Width))
			}
		}
		return out, nil
	}

	// Cartesian product with a size guard.
	if len(mr.rows)*len(newRows) > plan.MaxProduct {
		return nil, fmt.Errorf("exec: join of %s would produce over %d rows; add a join condition",
			b.Meta.Name, plan.MaxProduct)
	}
	for _, lr := range mr.rows {
		for _, nr := range newRows {
			out.rows = append(out.rows, concatRefRow(lr, nr, outRel.Width))
		}
	}
	return out, nil
}

func concatRefRow(l, r store.Row, width int) store.Row {
	row := make(store.Row, 0, width)
	row = append(row, l...)
	return append(row, r...)
}

func (ex *executor) referencePlain(stmt *sql.SelectStmt, mr *matRel, parent *frame) (*Result, error) {
	items, cols, err := plan.ExpandItems(stmt, mr.rel)
	if err != nil {
		return nil, err
	}
	orderExprs := plan.SubstituteAliases(stmt, items)

	type outRow struct {
		row  store.Row
		keys store.Row
	}
	var outs []outRow
	seen := map[string]bool{}
	for _, r := range mr.rows {
		f := &frame{Rel: mr.rel, Row: r, Parent: parent}
		if stmt.Where != nil {
			v, err := ex.eval(f, stmt.Where)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
		}
		row := make(store.Row, len(items))
		for i, it := range items {
			v, err := ex.eval(f, it)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if stmt.Distinct {
			k := rowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		keys := make(store.Row, len(orderExprs))
		for i, oe := range orderExprs {
			v, err := ex.eval(f, oe)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		outs = append(outs, outRow{row: row, keys: keys})
	}

	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return lessKeys(outs[i].keys, outs[j].keys, stmt.OrderBy)
		})
	}
	rows := make([]store.Row, 0, len(outs))
	for _, o := range outs {
		rows = append(rows, o.row)
	}
	if stmt.Limit >= 0 && len(rows) > stmt.Limit {
		rows = rows[:stmt.Limit]
	}
	return &Result{Cols: cols, Rows: rows}, nil
}

func (ex *executor) referenceAggregate(stmt *sql.SelectStmt, mr *matRel, parent *frame) (*Result, error) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("exec: SELECT * cannot be combined with aggregation")
		}
	}

	// Filter with WHERE first.
	var kept []store.Row
	for _, r := range mr.rows {
		f := &frame{Rel: mr.rel, Row: r, Parent: parent}
		if stmt.Where != nil {
			v, err := ex.eval(f, stmt.Where)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
		}
		kept = append(kept, r)
	}

	// Partition into groups.
	var groups []*group
	if len(stmt.GroupBy) == 0 {
		groups = []*group{{rel: mr.rel, rows: kept, parent: parent}}
	} else {
		byKey := map[string]*group{}
		var order []string
		for _, r := range kept {
			f := &frame{Rel: mr.rel, Row: r, Parent: parent}
			var key string
			for _, ge := range stmt.GroupBy {
				v, err := ex.eval(f, ge)
				if err != nil {
					return nil, err
				}
				key += v.Key() + "\x1f"
			}
			g, ok := byKey[key]
			if !ok {
				g = &group{rel: mr.rel, parent: parent}
				byKey[key] = g
				order = append(order, key)
			}
			g.rows = append(g.rows, r)
		}
		for _, k := range order {
			groups = append(groups, byKey[k])
		}
	}

	items, cols, err := plan.ExpandItems(stmt, mr.rel)
	if err != nil {
		return nil, err
	}
	orderExprs := plan.SubstituteAliases(stmt, items)

	type outRow struct {
		row  store.Row
		keys store.Row
	}
	var outs []outRow
	seen := map[string]bool{}
	for _, g := range groups {
		if stmt.Having != nil {
			v, err := ex.evalGroup(g, stmt.Having)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
		}
		row := make(store.Row, len(items))
		for i, it := range items {
			v, err := ex.evalGroup(g, it)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if stmt.Distinct {
			k := rowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		keys := make(store.Row, len(orderExprs))
		for i, oe := range orderExprs {
			v, err := ex.evalGroup(g, oe)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		outs = append(outs, outRow{row: row, keys: keys})
	}

	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return lessKeys(outs[i].keys, outs[j].keys, stmt.OrderBy)
		})
	}
	rows := make([]store.Row, 0, len(outs))
	for _, o := range outs {
		rows = append(rows, o.row)
	}
	if stmt.Limit >= 0 && len(rows) > stmt.Limit {
		rows = rows[:stmt.Limit]
	}
	return &Result{Cols: cols, Rows: rows}, nil
}

func lessKeys(a, b store.Row, order []sql.OrderItem) bool {
	for i := range order {
		c := store.Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if order[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// group is a set of rows sharing GROUP BY key values, the reference
// executor's evaluation context for aggregate expressions.
type group struct {
	rel    *plan.Rel
	rows   []store.Row
	parent *frame
}

// rep returns a frame over the group's first row, used for evaluating
// grouped (non-aggregate) expressions. An empty group (the global
// aggregate over empty input) yields an all-NULL row.
func (g *group) rep() *frame {
	var row store.Row
	if len(g.rows) > 0 {
		row = g.rows[0]
	} else {
		row = make(store.Row, g.rel.Width)
	}
	return &frame{Rel: g.rel, Row: row, Parent: g.parent}
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
	f := &frame{Rel: g.rel, Parent: g.parent}
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
