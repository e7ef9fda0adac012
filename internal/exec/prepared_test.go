package exec_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
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
// parameter lifting, slot-based index probes and template reuse must
// never change results.
func TestPreparedCorpusDifferential(t *testing.T) {
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range bench.Corpus(domain) {
			stmt, err := sql.Parse(cs.Gold)
			if err != nil {
				t.Fatalf("%s: gold does not parse: %v", cs.ID, err)
			}
			sn := db.Snapshot()
			oneShot, err := exec.Query(sn, stmt)
			if err != nil {
				t.Fatalf("%s: one-shot execution failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			pq, params, err := exec.Prepare(sn, stmt, 1)
			if err != nil {
				t.Fatalf("%s: prepare failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			prepared, err := pq.Run(context.Background(), sn, params, 1)
			if err != nil {
				t.Fatalf("%s: prepared execution failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			if err := rowsIdentical(prepared, oneShot); err != nil {
				t.Errorf("%s: prepared vs one-shot: %v\nsql: %s", cs.ID, err, cs.Gold)
			}
			pqPar, paramsPar, err := exec.Prepare(sn, stmt, 4)
			if err != nil {
				t.Fatalf("%s: parallel prepare failed: %v", cs.ID, err)
			}
			parallel, err := pqPar.Run(context.Background(), sn, paramsPar, 4)
			if err != nil {
				t.Fatalf("%s: parallel prepared execution failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			if err := rowsIdentical(parallel, oneShot); err != nil {
				t.Errorf("%s: parallel prepared vs one-shot: %v\nsql: %s", cs.ID, err, cs.Gold)
			}
		}
	}
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
		pq, params, err := exec.Prepare(sn, first, 1)
		if err != nil {
			t.Fatalf("prepare %s: %v", pair[0], err)
		}
		tmpl2, params2 := sql.Parameterize(second)
		if sql.ShapeKey(tmpl2, params2) != pq.ShapeKey() {
			t.Fatalf("test premise broken: pair does not share a shape:\n%s\n%s", pair[0], pair[1])
		}
		for _, bind := range []struct {
			name   string
			stmt   *sql.SelectStmt
			params []store.Value
		}{{"original", first, params}, {"rebound", second, params2}} {
			got, err := pq.Run(context.Background(), sn, bind.params, 1)
			if err != nil {
				t.Fatalf("prepared run (%s) %s: %v", bind.name, bind.stmt, err)
			}
			want, err := exec.Query(sn, bind.stmt)
			if err != nil {
				t.Fatal(err)
			}
			if err := rowsIdentical(got, want); err != nil {
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
	pq, params, err := exec.Prepare(sn, sql.MustParse("SELECT name FROM students WHERE gpa > 3.5"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(context.Background(), sn, pq.Tmpl.Plan(), exec.RunOpts{}); err == nil {
		t.Error("running a parameterized plan with no vector must error, not answer")
	}
	if _, err := exec.Run(context.Background(), sn, pq.Tmpl.Plan(), exec.RunOpts{Params: params}); err != nil {
		t.Errorf("running with the vector bound: %v", err)
	}
}

// TestPreparedRebindSupersededBound: regression for a range-merge
// consumption bug. With "id BETWEEN lo AND hi AND id <= cap", the
// compile-time merge may take the scan's upper bound from the cap
// conjunct (when cap is tighter); the BETWEEN must then stay a filter,
// because a rebind can invert the tightness and its hi side would
// otherwise be enforced nowhere. Before the fix, the rebind below
// returned every row up to cap instead of up to the BETWEEN's hi.
func TestPreparedRebindSupersededBound(t *testing.T) {
	db := dataset.University(1)
	first := sql.MustParse("SELECT id FROM students WHERE id BETWEEN 0 AND 40 AND id <= 20 ORDER BY id")
	second := sql.MustParse("SELECT id FROM students WHERE id BETWEEN 0 AND 5 AND id <= 20 ORDER BY id")

	sn := db.Snapshot()
	pq, _, err := exec.Prepare(sn, first, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, params2 := sql.Parameterize(second)
	got, err := pq.Run(context.Background(), sn, params2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Query(sn, second)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowsIdentical(got, want); err != nil {
		t.Errorf("rebind with inverted bound tightness: %v", err)
	}
	// And the mirrored shape: the BETWEEN supplies the tighter cap at
	// compile time, a plain bound at rebind time.
	third := sql.MustParse("SELECT id FROM students WHERE id BETWEEN 0 AND 40 AND id <= 5 ORDER BY id")
	_, params3 := sql.Parameterize(third)
	got3, err := pq.Run(context.Background(), sn, params3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := exec.Query(sn, third)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowsIdentical(got3, want3); err != nil {
		t.Errorf("rebind with plain bound tightest: %v", err)
	}
}

// TestPreparedRebindAfterBulkLoad: a bulk load shifts table statistics
// under a cached template; the next bind recompiles to a different —
// and still correct — plan.
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
	pq, params, err := exec.Prepare(db.Snapshot(), stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := pq.Tmpl.Plan().Explain()

	// Invert the relative sizes: orders becomes the big side.
	rows := make([]store.Row, 8000)
	for i := range rows {
		rows[i] = store.Row{store.Int(int64(100 + i)), store.Int(int64(i % 7))}
	}
	db.MustBulkInsert("orders", rows)

	sn := db.Snapshot()
	p, reused, err := pq.Bind(sn, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("bind after a stats-shifting bulk load must recompile")
	}
	after := p.Explain()
	if strings.Split(before, "\n")[2] == strings.Split(after, "\n")[2] {
		t.Errorf("recompiled plan should probe from the other side\nbefore:\n%s\nafter:\n%s", before, after)
	}
	got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Query(sn, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowsIdentical(got, want); err != nil {
		t.Errorf("recompiled bind answers differently: %v", err)
	}
}
