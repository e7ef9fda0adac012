package plan_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestTemplateBindFastPath: constants of the same shape rebind onto
// the shared compiled tree — the plan pointer itself — with the key
// predicate left as a parameter slot. Another worker degree recompiles.
func TestTemplateBindFastPath(t *testing.T) {
	db := dataset.University(1)
	tmplStmt, params := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE id = 7"))
	sn := db.Snapshot()
	tmpl, err := plan.CompileTemplate(sn, tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ex := tmpl.Plan().Explain(); !strings.Contains(ex, "id = $1") {
		t.Errorf("template plan should filter through a parameter slot:\n%s", ex)
	}

	_, params2 := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE id = 23"))
	p, reused, err := tmpl.BindPinned(sn, params2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("same-shape rebind should take the fast path")
	}
	if p != tmpl.Plan() {
		t.Error("fast path should return the shared compiled tree")
	}
	if p, reused, err := tmpl.BindPinned(sn, params2, 2); err != nil || reused || p == tmpl.Plan() {
		t.Errorf("a bind at another degree must recompile: reused=%v err=%v", reused, err)
	}
}

// explainLine returns the first Explain line containing substr.
func explainLine(explain, substr string) string {
	for _, line := range strings.Split(explain, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// TestTemplateRebindAfterDrift: a hash join hashes the input the
// optimizer estimates smaller and probes with the larger. A bulk load
// that inverts two tables' relative sizes inverts that choice, so a
// template compiled after the load differs from the one compiled
// before it — which is why the engine's plan cache drops a template
// once a table it reads has moved (TestPlanCacheStatsEpochInvalidation).
func TestTemplateRebindAfterDrift(t *testing.T) {
	s := schema.MustNew("drift", []*schema.Table{
		{Name: "small", Columns: []schema.Column{
			{Name: "id", Type: schema.Int}, {Name: "v", Type: schema.Int}}},
		{Name: "big", Columns: []schema.Column{
			{Name: "id", Type: schema.Int}, {Name: "w", Type: schema.Int}}},
	}, nil)
	db := store.NewDB(s)
	for i := 0; i < 10; i++ {
		db.MustInsert("small", store.Int(int64(i)), store.Int(int64(i)))
	}
	for i := 0; i < 500; i++ {
		db.MustInsert("big", store.Int(int64(i)), store.Int(int64(i)))
	}

	stmt := sql.MustParse("SELECT v, w FROM small, big WHERE small.id = big.id")
	tmplStmt, params := sql.Parameterize(stmt)
	tmpl, err := plan.CompileTemplate(db.Snapshot(), tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := tmpl.Plan().Explain()
	if !strings.Contains(explainLine(before, "[build]"), "scan small") {
		t.Fatalf("premise: the join should build on the smaller small and probe with big:\n%s", before)
	}

	// Grow small past big: which input is the smaller one inverts.
	rows := make([]store.Row, 5000)
	for i := range rows {
		rows[i] = store.Row{store.Int(int64(1000 + i)), store.Int(int64(i))}
	}
	db.MustBulkInsert("small", rows)

	fresh, err := plan.CompileTemplate(db.Snapshot(), tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := fresh.Plan().Explain()
	if after == before {
		t.Errorf("a template compiled after the load should differ:\n%s", after)
	}
	if !strings.Contains(explainLine(after, "[build]"), "scan big") {
		t.Errorf("fresh plan should build on big, now the smaller input:\n%s", after)
	}
}

// TestTemplateRebindBuildSideDrift: the build side is a decision of
// its own, not a consequence of the join order. Here a load leaves the
// greedy order alone — a is still the smallest table and b the only
// one connected to it — and keeps every estimate on the same side of
// the parallelize gate, but grows c past the a-b join it is joined to:
// c was the side to hash, now the join result is. A template compiled
// after the load hashes the join.
// driftDB is a ten-row a, a hundred-row b referencing it, and a c
// that loadC fills with rows [from, to) referencing b. The schema
// declares those keys, which the rows satisfy, so the planner
// estimates a⋈b at b's hundred rows.
func driftDB() (db *store.DB, loadC func(from, to int)) {
	cols := func(names ...string) []schema.Column {
		out := make([]schema.Column, len(names))
		for i, n := range names {
			out[i] = schema.Column{Name: n, Type: schema.Int}
		}
		return out
	}
	s := schema.MustNew("drift3", []*schema.Table{
		{Name: "a", PrimaryKey: "id", Columns: cols("id")},
		{Name: "b", PrimaryKey: "id", Columns: cols("id", "aid")},
		{Name: "c", Columns: cols("bid", "w")},
	}, []schema.ForeignKey{
		{Table: "b", Column: "aid", RefTable: "a", RefColumn: "id"},
		{Table: "c", Column: "bid", RefTable: "b", RefColumn: "id"},
	})
	db = store.NewDB(s)
	for i := 0; i < 10; i++ {
		db.MustInsert("a", store.Int(int64(i)))
	}
	for i := 0; i < 100; i++ {
		db.MustInsert("b", store.Int(int64(i)), store.Int(int64(i%10)))
	}
	return db, func(from, to int) {
		rows := make([]store.Row, 0, to-from)
		for i := from; i < to; i++ {
			rows = append(rows, store.Row{store.Int(int64(i % 100)), store.Int(int64(i))})
		}
		db.MustBulkInsert("c", rows)
	}
}

func TestTemplateRebindBuildSideDrift(t *testing.T) {
	db, loadC := driftDB()
	loadC(0, 50)

	stmt := sql.MustParse("SELECT a.id, c.w FROM a, b, c WHERE a.id = b.aid AND b.id = c.bid")
	tmplStmt, params := sql.Parameterize(stmt)
	tmpl, err := plan.CompileTemplate(db.Snapshot(), tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := tmpl.Plan().Explain()
	cLine := func(explain string) string { return explainLine(explain, "scan c ") }
	if !strings.Contains(cLine(before), "[build]") {
		t.Fatalf("premise: 50-row c should be hashed against the ~100-row a-b join:\n%s", before)
	}
	loadC(50, 200)
	fresh, err := plan.CompileTemplate(db.Snapshot(), tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := fresh.Plan().Explain()
	if strings.Contains(cLine(after), "[build]") {
		t.Errorf("fresh plan should probe with c, now the larger input:\n%s", after)
	}
}
