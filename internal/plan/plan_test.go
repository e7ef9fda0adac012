package plan_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
)

// TestOperatorCounts checks the plan-shape counters the benchmark
// harness consumes.
func TestOperatorCounts(t *testing.T) {
	db := dataset.University(1)
	p, err := plan.Compile(db.Snapshot(), sql.MustParse(
		"SELECT s.name FROM students s, departments d "+
			"WHERE s.dept_id = d.dept_id AND s.gpa > 3 ORDER BY s.name LIMIT 3"))
	if err != nil {
		t.Fatal(err)
	}
	counts := p.OperatorCounts()
	for op, want := range map[string]int{
		"hash-join": 1, "filter": 1, "scan": 2,
		"project": 1, "sort": 1, "limit": 1,
	} {
		if counts[op] != want {
			t.Errorf("OperatorCounts[%s] = %d, want %d (%v)", op, counts[op], want, counts)
		}
	}
}

// TestColumnPruning verifies scans carry only referenced columns, and
// that SELECT * disables pruning.
func TestColumnPruning(t *testing.T) {
	db := dataset.University(1)
	p, err := plan.Compile(db.Snapshot(), sql.MustParse("SELECT name FROM students WHERE gpa > 3"))
	if err != nil {
		t.Fatal(err)
	}
	var scans []*plan.Scan
	plan.Walk(p.Root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scans = append(scans, s)
		}
	})
	if len(scans) != 1 {
		t.Fatalf("want one scan, got %d", len(scans))
	}
	if got := len(scans[0].B.Cols); got != 2 { // name, gpa
		t.Errorf("retained %d columns, want 2", got)
	}

	star, err := plan.Compile(db.Snapshot(), sql.MustParse("SELECT * FROM students"))
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(star.Root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			if len(s.B.Cols) != len(s.B.Meta.Columns) {
				t.Errorf("SELECT * pruned columns: %d/%d", len(s.B.Cols), len(s.B.Meta.Columns))
			}
		}
	})
}

// TestNullLiteralStaysInFilter: "col = NULL" and "col > NULL"
// must evaluate under three-valued logic (reject every row). The one
// access path is a scan, and the conjunct must stay in the filter above
// it, where the executor evaluates it row by row.
func TestNullLiteralStaysInFilter(t *testing.T) {
	db := dataset.University(1)
	for _, q := range []string{
		"SELECT name FROM students WHERE id = NULL",
		"SELECT name FROM students WHERE id > NULL",
		"SELECT name FROM students WHERE id BETWEEN NULL AND 10",
	} {
		p, err := plan.Compile(db.Snapshot(), sql.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		counts := p.OperatorCounts()
		if counts["scan"] != 1 || counts["filter"] != 1 {
			t.Errorf("%s: want the conjunct filtered above a scan, got %v:\n%s", q, counts, p.Explain())
		}
	}
}

// TestCrossProductGuard: the planned executor builds no cartesian
// product, so an unconstrained many-way self product fails to plan
// with ErrUnsupported; the reference executor refuses it at the seed
// executor's bound. Once no binding left joins the ones placed, the
// rest follow in declaration order, so the refusal names the first of
// them declared.
func TestCrossProductGuard(t *testing.T) {
	db := dataset.University(1)
	for q, first := range map[string]string{
		"SELECT COUNT(*) FROM enrollments a, enrollments b, enrollments c":                                     "b",
		"SELECT COUNT(*) FROM students s, departments d, courses c, instructors i WHERE s.dept_id = d.dept_id": "c",
	} {
		_, err := plan.Compile(db.Snapshot(), sql.MustParse(q))
		if !errors.Is(err, plan.ErrUnsupported) || !strings.Contains(err.Error(), "joining "+first+" to") {
			t.Fatalf("planned %s: %v, want ErrUnsupported naming %s", q, err, first)
		}
	}
	stmt := sql.MustParse("SELECT COUNT(*) FROM enrollments a, enrollments b, enrollments c")
	_, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
	if err == nil || !strings.Contains(err.Error(), "add a join condition") {
		t.Fatalf("cross product guard did not fire: %v", err)
	}
}
