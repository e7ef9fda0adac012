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
	p, reused, err := tmpl.Bind(sn, params2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("same-shape rebind should take the fast path")
	}
	if p != tmpl.Plan() {
		t.Error("fast path should return the shared compiled tree")
	}
	if p, reused, err := tmpl.Bind(sn, params2, 2); err != nil || reused || p == tmpl.Plan() {
		t.Errorf("a bind at another degree must recompile: reused=%v err=%v", reused, err)
	}
}

// TestTemplateBindValidates: binding the wrong arity or kind is
// rejected — the shape contract that keeps kind-dependent compile
// decisions in the cached plan valid.
func TestTemplateBindValidates(t *testing.T) {
	db := dataset.University(1)
	tmplStmt, params := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE id = 7"))
	sn := db.Snapshot()
	tmpl, err := plan.CompileTemplate(sn, tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tmpl.Bind(sn, []store.Value{store.Text("seven")}, 1); err == nil {
		t.Error("kind-mismatched binding must be rejected")
	}
	if _, _, err := tmpl.Bind(sn, nil, 1); err == nil {
		t.Error("arity-mismatched binding must be rejected")
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
// that inverts two tables' relative sizes inverts that choice; the load
// moves the stats epoch, so Bind recompiles instead of reusing the
// cached tree.
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

	// Rebinding on an unchanged store stays on the fast path.
	if _, reused, err := tmpl.Bind(db.Snapshot(), params, 1); err != nil || !reused {
		t.Fatalf("quiescent rebind: reused=%v err=%v", reused, err)
	}

	// Grow small past big: which input is the smaller one inverts.
	rows := make([]store.Row, 5000)
	for i := range rows {
		rows[i] = store.Row{store.Int(int64(1000 + i)), store.Int(int64(i))}
	}
	db.MustBulkInsert("small", rows)

	p, reused, err := tmpl.Bind(db.Snapshot(), params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("rebind after stats drift must not reuse the cached tree")
	}
	after := p.Explain()
	if after == before {
		t.Errorf("drifted rebind should produce a different plan:\n%s", after)
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
// c was the side to hash, now the join result is. The load moves the
// stats epoch, so Bind recompiles and the fresh tree hashes the join.
// driftDB is a ten-row a, a hundred-row b referencing it, and a c
// that loadC fills with rows [from, to) referencing b.
func driftDB() (db *store.DB, loadC func(from, to int)) {
	cols := func(names ...string) []schema.Column {
		out := make([]schema.Column, len(names))
		for i, n := range names {
			out[i] = schema.Column{Name: n, Type: schema.Int}
		}
		return out
	}
	s := schema.MustNew("drift3", []*schema.Table{
		{Name: "a", Columns: cols("id")},
		{Name: "b", Columns: cols("id", "aid")},
		{Name: "c", Columns: cols("bid", "w")},
	}, nil)
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
	if _, reused, err := tmpl.Bind(db.Snapshot(), params, 1); err != nil || !reused {
		t.Fatalf("quiescent rebind: reused=%v err=%v", reused, err)
	}

	loadC(50, 200)
	p, reused, err := tmpl.Bind(db.Snapshot(), params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatalf("rebind after c outgrew the a-b join must not reuse the cached tree:\n%s", before)
	}
	after := p.Explain()
	if strings.Contains(cLine(after), "[build]") {
		t.Errorf("fresh plan should probe with c, now the larger input:\n%s", after)
	}
}

// A cross join hashes nothing, so which of its inputs is smaller is not
// a decision the tree bakes in. The same drift still moves the stats
// epoch, so Bind recompiles — and the fresh tree has the same shape:
// a cross join with no build side on c.
func TestTemplateRebindCrossJoinIgnoresSizes(t *testing.T) {
	db, loadC := driftDB()
	loadC(0, 50)
	stmt := sql.MustParse("SELECT a.id, c.w FROM a, b, c WHERE a.id = b.aid")
	tmplStmt, params := sql.Parameterize(stmt)
	tmpl, err := plan.CompileTemplate(db.Snapshot(), tmplStmt, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := tmpl.Plan().Explain()
	if !strings.Contains(before, "cross join") || strings.Contains(explainLine(before, "scan c "), "[build]") {
		t.Fatalf("premise: c joins the a-b join by a cross join, with no build side:\n%s", before)
	}
	loadC(50, 200)
	p, reused, err := tmpl.Bind(db.Snapshot(), params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Errorf("a load moved the stats epoch, yet Bind reused the cached tree:\n%s", before)
	}
	after := p.Explain()
	if !strings.Contains(after, "cross join") || strings.Contains(explainLine(after, "scan c "), "[build]") {
		t.Errorf("c outgrowing the a-b join changed the cross join's shape:\n%s\n--- became ---\n%s", before, after)
	}
}
