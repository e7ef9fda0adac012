package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestCorrelatedSubqueryNotCached is the regression test for the
// reference executor's subquery cache: a subquery correlated through an
// *unqualified* column reference ("id" below resolves to the outer
// students row, because enrollments has no "id" column) must be
// re-evaluated per outer row. The pre-hardening cache keyed only on the
// statement pointer and detected correlation only through qualified
// references, so every student was served the first student's
// enrollment count. The planned executor does not run either spelling.
func TestCorrelatedSubqueryNotCached(t *testing.T) {
	db := fixture(t)
	for _, q := range []string{
		"SELECT name FROM students s WHERE " +
			"(SELECT COUNT(*) FROM enrollments WHERE student_id = id) > 1 ORDER BY name",
		// The qualified spelling must agree.
		"SELECT name FROM students s WHERE " +
			"(SELECT COUNT(*) FROM enrollments e WHERE e.student_id = s.id) > 1 ORDER BY name",
	} {
		// Only Ada has more than one enrollment (Algorithms and Calculus).
		wantNames(t, reference(t, db, q), "Ada")
		wantUnsupported(t, db, q)
	}
}

// reference runs q on the reference executor.
func reference(t *testing.T, db *store.DB, q string) *Result {
	t.Helper()
	res, err := ReferenceQueryAt(db.Snapshot(), sql.MustParse(q))
	if err != nil {
		t.Fatalf("ReferenceQueryAt(%q): %v", q, err)
	}
	return res
}

// wantUnsupported fails unless the planned executor declines q with
// ErrUnsupported.
func wantUnsupported(t *testing.T, db *store.DB, q string) {
	t.Helper()
	if _, err := Query(db.Snapshot(), sql.MustParse(q)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Query(%q) = %v, want ErrUnsupported", q, err)
	}
}

// TestCorrelationDetection exercises the analysis directly: qualified
// and unqualified outer references, shadowing by the subquery's own
// FROM clause, and plain uncorrelated subqueries.
func TestCorrelationDetection(t *testing.T) {
	db := fixture(t)
	ex := newExecutor(db.Snapshot())

	outerPlan, err := Compile(db.Snapshot(), sql.MustParse("SELECT name FROM students s"), 1)
	if err != nil {
		t.Fatal(err)
	}
	outerRel := outerPlan.Root.Children()[0].Rel()
	if outerRel == nil {
		t.Fatalf("no relational child under %T", outerPlan.Root)
	}
	f := &frame{Rel: outerRel, Row: make(store.Row, outerRel.Width)}

	cases := []struct {
		name string
		sub  string
		want bool
	}{
		{"uncorrelated", "SELECT AVG(gpa) FROM students", false},
		{"qualified outer ref", "SELECT 1 FROM enrollments e WHERE e.student_id = s.id", true},
		{"unqualified outer ref", "SELECT 1 FROM enrollments WHERE student_id = id", true},
		{"shadowed by local FROM", "SELECT 1 FROM students WHERE gpa > 3", false},
		{"nested correlated", "SELECT 1 FROM enrollments e WHERE EXISTS " +
			"(SELECT 1 FROM courses c WHERE c.course_id = e.course_id AND c.dept_id = s.dept_id)", true},
	}
	for _, c := range cases {
		sub := sql.MustParse(c.sub)
		if got := ex.correlated(sub, f); got != c.want {
			t.Errorf("%s: correlated = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestUncorrelatedCacheReused: an uncorrelated subquery is compiled
// with its statement, so running one compiled plan twice compiles no
// sub-plan, and it runs once a run: at four workers the subquery's
// table is scanned once, as the run's segment counters show — the
// outer scan's segments plus the subquery's, each counted once.
func TestUncorrelatedCacheReused(t *testing.T) {
	const q = "SELECT COUNT(*) FROM events WHERE events.latency_ms > " +
		"(SELECT AVG(devices.priority) FROM devices WHERE devices.region <> 'none')"
	db := dataset.Telemetry(6000)
	db.Table("events").SetSegmentRows(512)
	db.Table("devices").SetSegmentRows(64)
	sn := db.Snapshot()
	want, err := ReferenceQueryAt(sn, sql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	// run runs p, returning its rows and the segments it read or
	// skipped.
	run := func(p *plan.Plan) ([]store.Row, int64) {
		t.Helper()
		var c store.SegCounters
		res, err := Run(context.Background(), sn, p, RunOpts{SegC: &c})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, c.Scanned.Load() + c.Skipped.Load()
	}
	compile := func(q string, par int) *plan.Plan {
		t.Helper()
		p, err := Compile(sn, sql.MustParse(q), par)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	_, outer := run(compile("SELECT COUNT(*) FROM events", 4))
	_, sub := run(compile("SELECT AVG(devices.priority) FROM devices WHERE devices.region <> 'none'", 1))
	p := compile(q, 4)
	if p.Par != 4 {
		t.Fatalf("the statement runs at degree %d, want an exchange of 4:\n%s", p.Par, p.Explain())
	}
	compiled := plan.SubplanCompiles.Load()
	for i := range 2 {
		rows, segs := run(p)
		if len(rows) != 1 || rowKey(rows[0]) != rowKey(want.Rows[0]) {
			t.Fatalf("run %d: %v, want %v", i, rows, want.Rows)
		}
		if segs != outer+sub {
			t.Errorf("run %d read or skipped %d segments, want %d of events and %d of devices", i, segs, outer, sub)
		}
	}
	if n := plan.SubplanCompiles.Load() - compiled; n != 0 {
		t.Errorf("two runs of one plan compiled %d sub-plans, want none", n)
	}
}
