package pattern

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/semindex"
)

func sys(t testing.TB) *System {
	t.Helper()
	return New(semindex.Build(dataset.University(1), semindex.DefaultOptions()))
}

func translate(t *testing.T, s *System, q string) string {
	t.Helper()
	stmt, err := s.Translate(q)
	if err != nil {
		t.Fatalf("Translate(%q): %v", q, err)
	}
	return stmt.String()
}

func TestName(t *testing.T) {
	if sys(t).Name() != "pattern" {
		t.Error("name wrong")
	}
}

func TestBareListing(t *testing.T) {
	s := sys(t)
	got := translate(t, s, "show all students")
	if !strings.Contains(got, "FROM students") {
		t.Errorf("sql = %s", got)
	}
}

func TestHowManyTemplate(t *testing.T) {
	s := sys(t)
	got := translate(t, s, "how many students")
	if !strings.Contains(got, "COUNT") {
		t.Errorf("sql = %s", got)
	}
	got = translate(t, s, "how many students in Computer Science")
	if !strings.Contains(got, "COUNT") || !strings.Contains(got, "Computer Science") {
		t.Errorf("sql = %s", got)
	}
}

func TestAggTemplate(t *testing.T) {
	s := sys(t)
	got := translate(t, s, "average salary of instructors")
	if !strings.Contains(got, "AVG(instructors.salary)") {
		t.Errorf("sql = %s", got)
	}
}

func TestSuperTemplate(t *testing.T) {
	s := sys(t)
	got := translate(t, s, "which instructor has the highest salary")
	if !strings.Contains(got, "ORDER BY instructors.salary DESC LIMIT 1") {
		t.Errorf("sql = %s", got)
	}
}

func TestCmpTemplate(t *testing.T) {
	s := sys(t)
	got := translate(t, s, "students with gpa over 3.5")
	if !strings.Contains(got, "students.gpa > 3.5") {
		t.Errorf("sql = %s", got)
	}
}

func TestValueTemplateWithJoin(t *testing.T) {
	s := sys(t)
	got := translate(t, s, "students in Computer Science")
	if !strings.Contains(got, "departments.name = 'Computer Science'") {
		t.Errorf("sql = %s", got)
	}
	if !strings.Contains(got, "DISTINCT") {
		t.Errorf("joined listing should be distinct: %s", got)
	}
}

func TestNoTemplateMatches(t *testing.T) {
	s := sys(t)
	for _, q := range []string{
		"average salary of instructors per department", // grouping unsupported
		"students not in History",                      // negation unsupported
		"students with more than 2 enrollments",        // having unsupported
		"instructors with salary above the average",    // nesting unsupported
		"gibberish entirely",
	} {
		if _, err := s.Translate(q); err == nil {
			t.Errorf("Translate(%q) matched a template unexpectedly", q)
		}
	}
}

func TestExecutesEndToEnd(t *testing.T) {
	db := dataset.University(1)
	s := New(semindex.Build(db, semindex.DefaultOptions()))
	stmt, err := s.Translate("how many students in Computer Science")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 30 {
		t.Errorf("count = %v (sql %s)", res.Rows[0][0], stmt)
	}
}
