package bench

import (
	"math/rand"
	"slices"

	"repro/internal/iql"
	"repro/internal/lexicon"
	"repro/internal/schema"
	"repro/internal/store"
)

// Generator draws seeded random IQL queries over one database: each is
// well typed, reads tables within two foreign-key hops of its entity,
// and takes its constants from the data, so its conditions select
// something. It builds the forms the front end's readings are made of —
// conditions with negation, BETWEEN, IN lists and LIKE; DISTINCT; a
// global aggregate; GROUP BY with HAVING; an aggregate ORDER BY over
// the entity's groups; ORDER BY with LIMIT; a nested comparison with
// conditions of its own — in combinations no question of the corpus
// reaches. The executor differentials run what it draws through ToSQL.
type Generator struct {
	s    *schema.Schema
	rows map[string][]store.Row // each table's rows, read once
	near map[string][]string    // each table and those within two hops
}

// NewGenerator reads sn's tables for a Generator over them.
func NewGenerator(sn *store.Snapshot) *Generator {
	g := &Generator{s: sn.Schema, rows: map[string][]store.Row{}, near: map[string][]string{}}
	adj := map[string][]string{}
	for _, fk := range g.s.ForeignKeys {
		adj[fk.Table] = append(adj[fk.Table], fk.RefTable)
		adj[fk.RefTable] = append(adj[fk.RefTable], fk.Table)
	}
	for _, t := range g.s.Tables {
		g.rows[t.Name] = sn.Table(t.Name).Rows()
		near := []string{t.Name}
		for _, a := range adj[t.Name] {
			near = append(near, a)
			near = append(near, adj[a]...)
		}
		slices.Sort(near[1:])
		g.near[t.Name] = slices.Compact(near)
	}
	return g
}

// Generate draws one query. depth is how many optional parts it gets
// beyond its entity and outputs: conditions (the nested comparison's
// included), HAVING, ORDER BY, LIMIT, DISTINCT and the nested
// comparison itself, each one part.
func (g *Generator) Generate(r *rand.Rand, depth int) *iql.Query {
	tables := g.s.Tables
	q := &iql.Query{Entity: tables[r.Intn(len(tables))].Name}
	near := g.near[q.Entity]
	// part reports whether the query takes one more optional part.
	part := func() bool {
		if depth > 0 && r.Intn(2) == 0 {
			depth--
			return true
		}
		return false
	}
	switch r.Intn(4) {
	case 0: // rows: columns, or the entity's name column
		for range r.Intn(3) {
			q.Outputs = append(q.Outputs, iql.Output{Field: g.field(r, near, anyCol)})
		}
		if len(q.Outputs) > 0 && part() {
			q.Distinct = true
		}
		if part() {
			q.Order = &iql.OrderSpec{Field: g.field(r, near, anyCol), Desc: r.Intn(2) == 0}
			if q.Distinct {
				q.Order.Field = q.Outputs[0].Field
			}
			if part() {
				q.Order.Limit = 1 + r.Intn(10)
			}
		}
	case 1: // one global aggregate row
		for range 1 + r.Intn(2) {
			q.Outputs = append(q.Outputs, g.aggregate(r, near))
		}
	case 2: // GROUP BY a column
		q.GroupBy = []iql.FieldRef{g.field(r, near, keyCol)}
		for range 1 + r.Intn(2) {
			q.Outputs = append(q.Outputs, g.aggregate(r, near))
		}
		if part() {
			q.Having = g.having(r, near)
		}
		if part() {
			q.Order = g.aggOrder(r, near)
			if r.Intn(3) == 0 {
				q.Order = &iql.OrderSpec{Field: q.GroupBy[0], Desc: r.Intn(2) == 0}
			}
			if part() {
				q.Order.Limit = 1 + r.Intn(5)
			}
		}
	default: // the entity's rows grouped by its key, ranked or filtered by an aggregate
		for range r.Intn(2) {
			q.Outputs = append(q.Outputs, iql.Output{Field: g.field(r, []string{q.Entity}, anyCol)})
		}
		if r.Intn(2) == 0 {
			q.Having = g.having(r, near)
		} else {
			q.Order = g.aggOrder(r, near)
			q.Order.Limit = 1 + r.Intn(5)
		}
	}
	for range 3 {
		if part() {
			q.Conds = append(q.Conds, g.cond(r, near))
		}
	}
	if part() {
		if f := g.field(r, near, numCol); !f.Zero() {
			sub := g.field(r, g.s.TableNames(), numCol)
			q.Sub = &iql.SubCompare{Field: f, Op: g.op(r), Agg: []lexicon.Agg{lexicon.Avg, lexicon.Min, lexicon.Max, lexicon.Sum}[r.Intn(4)],
				SubField: sub}
			for range 2 {
				if part() {
					q.Sub.SubConds = append(q.Sub.SubConds, g.cond(r, []string{sub.Table}))
				}
			}
		}
	}
	return q
}

// The kinds of column field draws from.
const (
	anyCol  = iota
	keyCol  // a grouping key: text, int or bool
	numCol  // int or float
	condCol // text, int or float
)

// field draws a column of one of tables of the given kind, or the zero
// FieldRef when none has one.
func (g *Generator) field(r *rand.Rand, tables []string, kind int) iql.FieldRef {
	var fs []iql.FieldRef
	for _, name := range tables {
		for _, c := range g.s.Table(name).Columns {
			if kind == anyCol || kind == numCol && c.Type.IsNumeric() || kind == keyCol && c.Type != schema.Float ||
				kind == condCol && c.Type != schema.Bool {
				fs = append(fs, iql.FieldRef{Table: name, Column: c.Name})
			}
		}
	}
	if len(fs) == 0 {
		return iql.FieldRef{}
	}
	return fs[r.Intn(len(fs))]
}

// numeric reports whether f is an INT or FLOAT column.
func (g *Generator) numeric(f iql.FieldRef) bool {
	return g.s.Table(f.Table).Column(f.Column).Type.IsNumeric()
}

// value draws a value of f from the data: a NULL now and then, and an
// INT as a FLOAT half the time, as the front end writes numbers.
func (g *Generator) value(r *rand.Rand, f iql.FieldRef) store.Value {
	rows := g.rows[f.Table]
	if len(rows) == 0 {
		return store.Null()
	}
	v := rows[r.Intn(len(rows))][slices.IndexFunc(g.s.Table(f.Table).Columns, func(c schema.Column) bool { return c.Name == f.Column })]
	if v.Kind() == store.KindInt && r.Intn(2) == 0 {
		v = store.Float(float64(v.Int64()))
	}
	return v
}

func (g *Generator) op(r *rand.Rand) lexicon.CompareOp {
	return []lexicon.CompareOp{lexicon.Eq, lexicon.Ne, lexicon.Lt, lexicon.Le, lexicon.Gt, lexicon.Ge}[r.Intn(6)]
}

// cond draws a condition on a column of tables: a comparison, BETWEEN
// two values, an IN list or, on text, a LIKE of a value's middle; any
// of them negated. No condition is on a BOOL column: the grammar builds
// no BOOL value, and the planned executor runs no BOOL comparison.
func (g *Generator) cond(r *rand.Rand, tables []string) iql.Condition {
	f := g.field(r, tables, condCol)
	c := iql.Condition{Field: f, Op: lexicon.Eq, Value: g.value(r, f), Negated: r.Intn(4) == 0}
	text := g.s.Table(f.Table).Column(f.Column).Type == schema.Text
	switch r.Intn(4) {
	case 0:
		if g.numeric(f) {
			c.Op = g.op(r)
		}
	case 1:
		if g.numeric(f) {
			c.Between, c.Hi = true, g.value(r, f)
		}
	case 2:
		for range 1 + r.Intn(3) {
			c.In = append(c.In, g.value(r, f))
		}
		c.In = append(c.In, c.Value)
	default:
		if s := c.Value.Str(); text && len(s) > 2 {
			lo := r.Intn(len(s) - 1)
			c.Like = "%" + s[lo:lo+1+r.Intn(len(s)-lo-1)] + "%"
		}
	}
	return c
}

// aggregate draws an aggregate output: COUNT(*), COUNT (DISTINCT or
// not) of any column, MIN or MAX of a column, SUM or AVG of a number.
func (g *Generator) aggregate(r *rand.Rand, tables []string) iql.Output {
	switch r.Intn(4) {
	case 0:
		return iql.Output{CountStar: true}
	case 1:
		return iql.Output{Agg: lexicon.Count, Field: g.field(r, tables, anyCol), Distinct: r.Intn(2) == 0}
	case 2:
		return iql.Output{Agg: []lexicon.Agg{lexicon.Min, lexicon.Max}[r.Intn(2)], Field: g.field(r, tables, keyCol)}
	}
	if f := g.field(r, tables, numCol); !f.Zero() {
		return iql.Output{Agg: []lexicon.Agg{lexicon.Sum, lexicon.Avg}[r.Intn(2)], Field: f}
	}
	return iql.Output{CountStar: true}
}

// having draws a HAVING: a count of a table's rows, or an aggregate of
// a number, compared with a constant in the range the data gives it.
func (g *Generator) having(r *rand.Rand, tables []string) *iql.Having {
	h := &iql.Having{Op: g.op(r), CountTable: tables[r.Intn(len(tables))], Value: float64(r.Intn(6))}
	if f := g.field(r, tables, numCol); !f.Zero() && r.Intn(2) == 0 {
		h.CountTable, h.Agg, h.Field = "", []lexicon.Agg{lexicon.Sum, lexicon.Avg, lexicon.Min, lexicon.Max}[r.Intn(4)], f
		if x, ok := g.value(r, f).AsFloat(); ok {
			h.Value = x
		}
	}
	return h
}

// aggOrder draws an ORDER BY a count of a table's rows or an aggregate
// of a number.
func (g *Generator) aggOrder(r *rand.Rand, tables []string) *iql.OrderSpec {
	o := &iql.OrderSpec{CountRows: true, CountTable: tables[r.Intn(len(tables))], Desc: r.Intn(2) == 0}
	if f := g.field(r, tables, numCol); !f.Zero() && r.Intn(2) == 0 {
		o.CountRows, o.CountTable = false, ""
		o.Agg, o.Field = []lexicon.Agg{lexicon.Sum, lexicon.Avg, lexicon.Min, lexicon.Max}[r.Intn(4)], f
	}
	return o
}
