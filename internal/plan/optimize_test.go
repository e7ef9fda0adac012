package plan

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestJoinSelectivity: an equi-join is estimated from the schema and
// row counts alone. A declared foreign key is bounded by the rows of
// the table it references, capped at its own table's; any other
// column, a primary key or an undeclared one, by its own table's rows.
func TestJoinSelectivity(t *testing.T) {
	cols := func(names ...string) []schema.Column {
		out := make([]schema.Column, len(names))
		for i, n := range names {
			out[i] = schema.Column{Name: n, Type: schema.Int}
		}
		return out
	}
	s := schema.MustNew("sel", []*schema.Table{
		{Name: "customers", PrimaryKey: "id", Columns: cols("id")},
		{Name: "orders", PrimaryKey: "id", Columns: cols("id", "cid", "note")},
		{Name: "returns", PrimaryKey: "id", Columns: cols("id", "cid")},
		{Name: "refunds", PrimaryKey: "id", Columns: cols("id", "cid", "qty")},
	}, []schema.ForeignKey{
		{Table: "orders", Column: "cid", RefTable: "customers", RefColumn: "id"},
		{Table: "returns", Column: "cid", RefTable: "customers", RefColumn: "id"},
		{Table: "refunds", Column: "cid", RefTable: "customers", RefColumn: "id"},
	})
	// Row i holds i in every column but cid, which holds i%40: the rows
	// satisfy every declared key.
	db := store.NewDB(s)
	for name, n := range map[string]int{"customers": 40, "orders": 100, "returns": 25, "refunds": 10} {
		meta := s.Table(name)
		rows := make([]store.Row, n)
		for i := range rows {
			rows[i] = make(store.Row, len(meta.Columns))
			for c, col := range meta.Columns {
				rows[i][c] = store.Int(int64(i))
				if col.Name == "cid" {
					rows[i][c] = store.Int(int64(i % 40))
				}
			}
		}
		db.MustBulkInsert(name, rows)
	}
	sn := db.Snapshot()

	ref := func(q string) sql.ColumnRef {
		table, col, _ := strings.Cut(q, ".")
		return sql.ColumnRef{Table: table, Column: col}
	}
	for _, tc := range []struct {
		name, l, r string
		want       int // 1/selectivity
	}{
		{"FK to PK", "orders.cid", "customers.id", 40},
		{"two FKs to one table", "returns.cid", "refunds.cid", 25},
		{"PK with no FK", "customers.id", "orders.note", 100},
		{"unkeyed columns", "refunds.qty", "orders.note", 100},
	} {
		l, r := ref(tc.l), ref(tc.r)
		bindings := []Binding{
			{Name: l.Table, Meta: s.Table(l.Table)},
			{Name: r.Table, Meta: s.Table(r.Table)},
		}
		jc := boundJoin{cond: EquiJoin{L: l, R: r}, bi: 0, bj: 1}
		if got := joinSelectivity(sn, bindings, jc); got != 1/float64(tc.want) {
			t.Errorf("%s (%s = %s): selectivity 1/%g, want 1/%d", tc.name, tc.l, tc.r, 1/got, tc.want)
		}
	}
}
