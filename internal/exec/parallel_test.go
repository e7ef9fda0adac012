package exec_test

import (
	"context"
	"maps"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// TestParallelDifferentialCorpus runs every gold query of the full
// benchmark corpus serially and at several degrees: parallel must
// match serial row for row (the per-worker group tables merge into the
// serial group order) and the reference as a bag (join reordering may
// permute rows). University runs at scale 10 (1,200 students) and
// sales at scale 3 (about 1,300 order items), so their largest tables
// fill more than one batch and the aggregates over them fold inside an
// exchange's workers; row-returning questions and DISTINCT aggregates
// run serially at every degree and must still match.
func TestParallelDifferentialCorpus(t *testing.T) {
	exchanges := 0
	for _, domain := range dataset.Names() {
		scale := 1
		switch domain {
		case "university":
			scale = 10
		case "sales":
			scale = 3
		}
		for _, r := range corpusDifferential(t, domain, scale, 0, diffOpts{pars: []int{1, 2, 4, 8}}) {
			exchanges += r.plan.OperatorCounts()["exchange"]
		}
	}
	if exchanges == 0 {
		t.Fatal("no plan in the corpus got an exchange operator; the parallel path was never exercised")
	}
}

// TestParallelJoinHeavyRowForRow pins BenchmarkF5JoinHeavy's join
// queries and a grouped AVG to exact serial equality at every worker
// degree, over 1,200 students: the two aggregates fold inside an
// exchange's workers, and the four-table join, which returns rows,
// runs serially at every degree.
func TestParallelJoinHeavyRowForRow(t *testing.T) {
	sn := dataset.University(10).Snapshot()
	for _, q := range []string{
		"SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7",
		"SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name",
		"SELECT d.name, AVG(s.gpa) FROM students s, departments d " +
			"WHERE s.dept_id = d.dept_id GROUP BY d.name ORDER BY AVG(s.gpa) DESC",
	} {
		differential(t, sn, q, diffOpts{pars: []int{1, 2, 3, 4, 8, 16}})
	}
}

// TestParallelExplain checks the plan rewrite is visible: the exchange
// operator names its worker degree and the scan it splits, and every
// node below it is annotated with its degree of parallelism.
func TestParallelExplain(t *testing.T) {
	db := dataset.University(4)
	stmt := sql.MustParse("SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
		"WHERE e.student_id = s.id AND s.dept_id = d.dept_id GROUP BY d.name")
	p, err := exec.Compile(db.Snapshot(), stmt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Par != 4 {
		t.Fatalf("plan.Par = %d, want 4", p.Par)
	}
	out := p.Explain()
	if !strings.Contains(out, "exchange workers=4") {
		t.Errorf("Explain misses the exchange operator:\n%s", out)
	}
	if !strings.Contains(out, "[par=4]") {
		t.Errorf("Explain misses per-node parallelism annotations:\n%s", out)
	}
	// A COUNT folds inside the exchange's workers and says so, and so
	// does an AVG, whose exact sums merge; a DISTINCT aggregate gets no
	// exchange and carries no mark.
	if !strings.Contains(out, "group by d.name [partial ×worker]\n") {
		t.Errorf("Explain misses the per-worker fold on the COUNT aggregate:\n%s", out)
	}
	for agg, partial := range map[string]bool{"AVG(s.gpa)": true, "COUNT(DISTINCT s.gpa)": false} {
		p, err := exec.Compile(db.Snapshot(), sql.MustParse(strings.Replace(stmt.String(), "COUNT(*)", agg, 1)), 4)
		if err != nil {
			t.Fatal(err)
		}
		if out := p.Explain(); strings.Contains(out, "exchange workers=4") != partial || strings.Contains(out, "partial") != partial {
			t.Errorf("%s: want the exchange and its [partial ×worker] mark %v:\n%s", agg, partial, out)
		}
	}

	// Parallelism 1 keeps the serial plan: no exchange, no [par=] mark,
	// and the degree-4 plan's operators less its one exchange.
	serial, err := exec.Compile(db.Snapshot(), stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := serial.Explain(); strings.Contains(out, "exchange") || strings.Contains(out, "[par=") {
		t.Errorf("the Parallelism=1 plan is rewritten for workers:\n%s", out)
	}
	want := p.OperatorCounts()
	if want["exchange"] != 1 {
		t.Fatalf("the degree-4 plan has %d exchanges, want 1:\n%s", want["exchange"], p.Explain())
	}
	delete(want, "exchange")
	if got := serial.OperatorCounts(); !maps.Equal(got, want) {
		t.Errorf("Parallelism=1 operators %v, want the degree-4 plan's less its exchange: %v", got, want)
	}
}

// TestParallelRowPlansStaySerial: an exchange goes only under an
// aggregate that folds inside its workers, so a plan that returns rows
// — a LIMIT that streams, a LIMIT over a Sort — and a DISTINCT
// aggregate, whose per-worker partials would count a value once per
// worker, get none at degree 4 and answer what the serial plan does,
// row for row. 1,200 students fill more than a batch, so the shape
// alone decides.
func TestParallelRowPlansStaySerial(t *testing.T) {
	sn := dataset.University(10).Snapshot()
	for _, q := range []string{
		"SELECT name FROM students LIMIT 3",
		"SELECT name FROM students ORDER BY gpa DESC LIMIT 3",
		"SELECT dept_id, COUNT(DISTINCT gpa) FROM students GROUP BY dept_id",
	} {
		stmt := sql.MustParse(q)
		p, err := exec.Compile(sn, stmt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.OperatorCounts()["exchange"]; n != 0 || p.Par > 1 {
			t.Errorf("got %d exchange operators at degree %d, want none:\n%s\nsql: %s", n, p.Par, p.Explain(), q)
		}
		serial, err := exec.Query(sn, stmt)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(parallel, serial, true); err != nil {
			t.Errorf("degree 4 diverges from serial: %v\nsql: %s", err, q)
		}
	}
}
