package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestCorrelatedSubqueryNotCached is the regression test for the
// subquery cache: a subquery correlated through an *unqualified*
// column reference ("id" below resolves to the outer students row,
// because enrollments has no "id" column) must be re-evaluated per
// outer row. The pre-hardening cache keyed only on the statement
// pointer and detected correlation only through qualified references,
// so every student was served the first student's enrollment count.
func TestCorrelatedSubqueryNotCached(t *testing.T) {
	db := fixture(t)
	// Only Ada has more than one enrollment (Algorithms and Calculus).
	res := run(t, db, "SELECT name FROM students s WHERE "+
		"(SELECT COUNT(*) FROM enrollments WHERE student_id = id) > 1 ORDER BY name")
	wantNames(t, res, "Ada")

	// The qualified spelling must agree.
	res = run(t, db, "SELECT name FROM students s WHERE "+
		"(SELECT COUNT(*) FROM enrollments e WHERE e.student_id = s.id) > 1 ORDER BY name")
	wantNames(t, res, "Ada")
}

// TestCorrelationDetection exercises the analysis directly: qualified
// and unqualified outer references, shadowing by the subquery's own
// FROM clause, and plain uncorrelated subqueries.
func TestCorrelationDetection(t *testing.T) {
	db := fixture(t)
	ex := newExecutor(db.Snapshot(), RunOpts{})

	outerPlan, err := Compile(db.Snapshot(), sql.MustParse("SELECT name FROM students s"), 1)
	if err != nil {
		t.Fatal(err)
	}
	outerRel := outerPlan.Root.Children()[0].Rel()
	if outerRel == nil {
		t.Fatalf("no relational child under %T", outerPlan.Root)
	}
	frame := &plan.Frame{Rel: outerRel, Row: make(store.Row, outerRel.Width)}

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
		if got := ex.correlated(sub, frame); got != c.want {
			t.Errorf("%s: correlated = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestUncorrelatedCacheReused proves the cache actually serves repeat
// evaluations: after one query, the uncorrelated subquery's result is
// the cache's one entry, keyed by the subquery's own statement.
func TestUncorrelatedCacheReused(t *testing.T) {
	db := fixture(t)
	stmt := sql.MustParse("SELECT name FROM students WHERE gpa >= (SELECT MAX(gpa) FROM students)")
	sub := stmt.Where.(*sql.BinaryExpr).R.(*sql.SubqueryExpr).Sub
	sn := db.Snapshot()
	p, err := Compile(sn, stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExecutor(sn, RunOpts{})
	if _, err := ex.run(p, nil); err != nil {
		t.Fatal(err)
	}
	if len(ex.subCache) != 1 || ex.subCache[sub] == nil {
		t.Fatalf("subCache = %v, want one entry under the subquery statement", ex.subCache)
	}
}
