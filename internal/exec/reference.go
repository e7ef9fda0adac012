package exec

import (
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// ReferenceQueryAt evaluates stmt with the pre-planner strategy the
// seed executor used: FROM-order left-deep joins (hash joins on
// equi-join conjuncts found in WHERE, bounded cartesian products
// otherwise) that materialize the full join product, with the complete
// WHERE predicate re-applied to every joined row and no index access
// paths beyond the base-table equality prune. It exists as the
// differential-testing baseline for the planner and as the yardstick
// its speedups are measured against; subqueries encountered along the
// way also run through this path. Like Query, the whole evaluation
// reads the one pinned snapshot.
func ReferenceQueryAt(sn *store.Snapshot, stmt *sql.SelectStmt) (*Result, error) {
	ex := newExecutor(sn, RunOpts{})
	ex.reference = true
	return ex.referenceSelect(stmt, nil)
}

// matRel is a materialized relation: a row shape plus all its rows.
type matRel struct {
	rel  *plan.Rel
	rows []store.Row
}

func (ex *executor) referenceSelect(stmt *sql.SelectStmt, parent *plan.Frame) (*Result, error) {
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
		tab := ex.sn.Table(b.Meta.Name)
		if mr == nil {
			b.Off = 0
			mr = &matRel{
				rel:  &plan.Rel{Bindings: []plan.Binding{b}, Width: len(b.Meta.Columns)},
				rows: indexPrune(tab, b.Name, stmt.Where),
			}
			continue
		}
		var err error
		mr, err = joinOne(mr, b, tab, conds)
		if err != nil {
			return nil, err
		}
	}
	return mr, nil
}

// indexPrune narrows the base table's rows using a hash index when the
// WHERE clause has a top-level "col = literal" conjunct on an indexed
// column; the full predicate is re-applied afterwards.
func indexPrune(tab *store.TableSnap, name string, where sql.Expr) []store.Row {
	var walk func(sql.Expr) []store.Row
	walk = func(e sql.Expr) []store.Row {
		be, ok := e.(*sql.BinaryExpr)
		if !ok {
			return nil
		}
		switch be.Op {
		case sql.OpAnd:
			if r := walk(be.L); r != nil {
				return r
			}
			return walk(be.R)
		case sql.OpEq:
			col, lit, ok := plan.EqColLiteral(be)
			if !ok {
				return nil
			}
			if col.Table != "" && col.Table != name {
				return nil
			}
			if tab.ColIndex(col.Column) < 0 || !tab.HasIndex(col.Column) {
				return nil
			}
			ids, _ := tab.LookupIndex(col.Column, lit.Val)
			pruned := make([]store.Row, 0, len(ids))
			for _, id := range ids {
				pruned = append(pruned, tab.Row(id))
			}
			return pruned
		}
		return nil
	}
	if where != nil {
		if pruned := walk(where); pruned != nil {
			return pruned
		}
	}
	return tab.Rows()
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
func joinOne(mr *matRel, b plan.Binding, tab *store.TableSnap, conds []plan.EquiJoin) (*matRel, error) {
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

	newRows := tab.Rows()
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

func (ex *executor) referencePlain(stmt *sql.SelectStmt, mr *matRel, parent *plan.Frame) (*Result, error) {
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
		f := &plan.Frame{Rel: mr.rel, Row: r, Parent: parent}
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

func (ex *executor) referenceAggregate(stmt *sql.SelectStmt, mr *matRel, parent *plan.Frame) (*Result, error) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("exec: SELECT * cannot be combined with aggregation")
		}
	}

	// Filter with WHERE first.
	var kept []store.Row
	for _, r := range mr.rows {
		f := &plan.Frame{Rel: mr.rel, Row: r, Parent: parent}
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
	var groups []*plan.Group
	if len(stmt.GroupBy) == 0 {
		groups = []*plan.Group{{Rel: mr.rel, Rows: kept, Parent: parent}}
	} else {
		byKey := map[string]*plan.Group{}
		var order []string
		for _, r := range kept {
			f := &plan.Frame{Rel: mr.rel, Row: r, Parent: parent}
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
				g = &plan.Group{Rel: mr.rel, Parent: parent}
				byKey[key] = g
				order = append(order, key)
			}
			g.Rows = append(g.Rows, r)
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
