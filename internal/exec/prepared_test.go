package exec_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestPreparedCorpusDifferential runs every gold query of the full
// benchmark corpus through the prepared path — normalize, compile the
// template, bind the lifted constants back — and requires row-for-row
// identical results to the one-shot path, serially and at parallel
// degree 4. This is the prepared layer's end-to-end safety net:
// parameter lifting, slot-based zone-map skips and template reuse must
// never change results. At scale 1 no table fills a batch, so degree 4
// binds serial plans; university and sales run again at the scales
// TestParallelDifferentialCorpus uses, where templates fan out.
func TestPreparedCorpusDifferential(t *testing.T) {
	o := diffOpts{pars: []int{1, 4}, prepared: true}
	for _, domain := range dataset.Names() {
		corpusDifferential(t, domain, 1, 0, o)
	}
	fanned := 0
	for _, r := range append(corpusDifferential(t, "university", 10, 0, o), corpusDifferential(t, "sales", 3, 0, o)...) {
		if r.plan.Par > 1 {
			fanned++
		}
	}
	if fanned == 0 {
		t.Fatal("no scaled template fans out over workers")
	}
}

// prepare is the engine's plan-cache miss path: normalize stmt into a
// template and its constants, and compile the template at degree par
// with those constants as the exemplar.
func prepare(t *testing.T, sn *store.Snapshot, stmt *sql.SelectStmt, par int) (*exec.PreparedQuery, []store.Value) {
	t.Helper()
	tmpl, params := sql.Parameterize(stmt)
	pq, err := exec.PrepareTemplateAt(sn, tmpl, params, par)
	if err != nil {
		t.Fatalf("prepare %s: %v", stmt, err)
	}
	return pq, params
}

// runPrepared is the hit path: bind pq to params at degree par and run
// the bound plan on sn.
func runPrepared(sn *store.Snapshot, pq *exec.PreparedQuery, params []store.Value, par int) (*exec.Result, error) {
	p, _, err := pq.BindPinned(sn, params, par)
	if err != nil {
		return nil, err
	}
	return exec.Run(context.Background(), sn, p, exec.RunOpts{Params: params})
}

// TestPreparedRebindRowForRow: a template compiled from one question
// answers a constant-differing question of the same shape exactly as a
// fresh one-shot compile of that question would.
func TestPreparedRebindRowForRow(t *testing.T) {
	db := dataset.University(1)
	pairs := [][2]string{
		{"SELECT name FROM students WHERE id = 7",
			"SELECT name FROM students WHERE id = 23"},
		{"SELECT s.name FROM students s, departments d WHERE s.dept_id = d.dept_id AND d.name = 'Computer Science'",
			"SELECT s.name FROM students s, departments d WHERE s.dept_id = d.dept_id AND d.name = 'History'"},
		{"SELECT name FROM students WHERE id BETWEEN 5 AND 40 ORDER BY name",
			"SELECT name FROM students WHERE id BETWEEN 10 AND 12 ORDER BY name"},
		{"SELECT AVG(gpa), COUNT(*) FROM students WHERE year IN (1, 2)",
			"SELECT AVG(gpa), COUNT(*) FROM students WHERE year IN (3, 4)"},
		{"SELECT name FROM students WHERE gpa > 3.5 AND year = 2",
			"SELECT name FROM students WHERE gpa > 2.5 AND year = 4"},
		{"SELECT name FROM instructors WHERE name LIKE 'A%'",
			"SELECT name FROM instructors WHERE name LIKE '%son'"},
	}
	for _, pair := range pairs {
		first, second := sql.MustParse(pair[0]), sql.MustParse(pair[1])
		sn := db.Snapshot()
		pq, params := prepare(t, sn, first, 1)
		key1, _ := sql.ShapeInto(first, nil, nil)
		key2, params2 := sql.ShapeInto(second, nil, nil)
		if string(key2) != string(key1) {
			t.Fatalf("test premise broken: pair does not share a shape:\n%s\n%s", pair[0], pair[1])
		}
		for _, bind := range []struct {
			name   string
			stmt   *sql.SelectStmt
			params []store.Value
		}{{"original", first, params}, {"rebound", second, params2}} {
			got, err := runPrepared(sn, pq, bind.params, 1)
			if err != nil {
				t.Fatalf("prepared run (%s) %s: %v", bind.name, bind.stmt, err)
			}
			want, err := exec.Query(sn, bind.stmt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want, true); err != nil {
				t.Errorf("prepared (%s) vs one-shot for %s: %v", bind.name, bind.stmt, err)
			}
		}
	}
}

// TestPreparedPlanWithoutVectorErrors: executing a parameterized plan
// without its constant vector must fail loudly on every path — the
// vectorized compiler must never fall back to a surrogate value at
// run time (that would silently filter on a made-up constant).
func TestPreparedPlanWithoutVectorErrors(t *testing.T) {
	db := dataset.University(1)
	sn := db.Snapshot()
	pq, params := prepare(t, sn, sql.MustParse("SELECT name FROM students WHERE gpa > 3.5"), 1)
	if _, err := exec.Run(context.Background(), sn, pq.Tmpl.Plan(), exec.RunOpts{}); err == nil {
		t.Error("running a parameterized plan with no vector must error, not answer")
	}
	if _, err := exec.Run(context.Background(), sn, pq.Tmpl.Plan(), exec.RunOpts{Params: params}); err != nil {
		t.Errorf("running with the vector bound: %v", err)
	}
}

// TestPreparedRebindSupersededBound: "id BETWEEN lo AND hi AND id <=
// cap" puts two upper bounds on one column, and a rebind can invert
// which is tighter. Every bound must stay enforced — by the filter,
// whose kernels compiled from the bound values also decide its zone-map
// skips — so the rebind
// below returns rows up to the BETWEEN's hi, not up to cap.
func TestPreparedRebindSupersededBound(t *testing.T) {
	db := dataset.University(1)
	first := sql.MustParse("SELECT id FROM students WHERE id BETWEEN 0 AND 40 AND id <= 20 ORDER BY id")
	second := sql.MustParse("SELECT id FROM students WHERE id BETWEEN 0 AND 5 AND id <= 20 ORDER BY id")

	sn := db.Snapshot()
	pq, _ := prepare(t, sn, first, 1)
	_, params2 := sql.Parameterize(second)
	got, err := runPrepared(sn, pq, params2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Query(sn, second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, want, true); err != nil {
		t.Errorf("rebind with inverted bound tightness: %v", err)
	}
	// And the mirrored shape: the BETWEEN supplies the tighter cap at
	// compile time, a plain bound at rebind time.
	third := sql.MustParse("SELECT id FROM students WHERE id BETWEEN 0 AND 40 AND id <= 5 ORDER BY id")
	_, params3 := sql.Parameterize(third)
	got3, err := runPrepared(sn, pq, params3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := exec.Query(sn, third)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got3, want3, true); err != nil {
		t.Errorf("rebind with plain bound tightest: %v", err)
	}
}

// TestPreparedRebindAfterBulkLoad: a bulk load that inverts two
// tables' relative sizes makes a template compiled after it a
// different plan from the one compiled before, and both answer the
// statement correctly on the loaded store — a template whose row
// counts have moved is slower, never wrong.
func TestPreparedRebindAfterBulkLoad(t *testing.T) {
	s := schema.MustNew("drift", []*schema.Table{
		{Name: "orders", Columns: []schema.Column{
			{Name: "id", Type: schema.Int}, {Name: "cust", Type: schema.Int}}},
		{Name: "custs", Columns: []schema.Column{
			{Name: "cid", Type: schema.Int}, {Name: "region", Type: schema.Int}}},
	}, nil)
	db := store.NewDB(s)
	for i := 0; i < 20; i++ {
		db.MustInsert("orders", store.Int(int64(i)), store.Int(int64(i%7)))
	}
	for i := 0; i < 400; i++ {
		db.MustInsert("custs", store.Int(int64(i)), store.Int(int64(i%5)))
	}

	stmt := sql.MustParse("SELECT id, region FROM orders, custs WHERE orders.cust = custs.cid AND region = 3")
	pq, params := prepare(t, db.Snapshot(), stmt, 1)
	before := pq.Tmpl.Plan().Explain()

	// Invert the relative sizes: orders becomes the big side.
	rows := make([]store.Row, 8000)
	for i := range rows {
		rows[i] = store.Row{store.Int(int64(100 + i)), store.Int(int64(i % 7))}
	}
	db.MustBulkInsert("orders", rows)

	sn := db.Snapshot()
	fresh, _ := prepare(t, sn, stmt, 1)
	after := fresh.Tmpl.Plan().Explain()
	if strings.Split(before, "\n")[2] == strings.Split(after, "\n")[2] {
		t.Errorf("recompiled plan should probe from the other side\nbefore:\n%s\nafter:\n%s", before, after)
	}
	want, err := exec.Query(sn, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*exec.PreparedQuery{"compiled before the load": pq, "compiled after it": fresh} {
		got, err := runPrepared(sn, q, params, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want, true); err != nil {
			t.Errorf("template %s answers differently: %v", name, err)
		}
	}
}
