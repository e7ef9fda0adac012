package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// sameRows requires exact row-for-row equality, order included — the
// contract of the order-preserving exchange merge: a parallel plan
// must be indistinguishable from the serial one.
func sameRows(a, b *exec.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d widths differ", i)
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.IsNull() != bv.IsNull() || (!av.IsNull() && !store.Equal(av, bv)) {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, av, bv)
			}
		}
	}
	return nil
}

// TestParallelDifferentialCorpus runs every gold query of the full
// benchmark corpus through the serial planner path, the parallel path
// at several degrees, and the materializing reference path. Parallel
// must match serial row for row (exchange merge preserves order) and
// the reference as a bag (join reordering may permute rows). The
// university domain runs at scale 4 so probe sides clear the
// parallelization threshold and the exchange paths actually execute.
func TestParallelDifferentialCorpus(t *testing.T) {
	exchanges := 0
	for _, domain := range dataset.Names() {
		scale := 1
		if domain == "university" {
			scale = 4
		}
		db, err := dataset.ByName(domain, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range bench.Corpus(domain) {
			stmt, err := sql.Parse(cs.Gold)
			if err != nil {
				t.Fatalf("%s: gold does not parse: %v", cs.ID, err)
			}
			serial, err := exec.Query(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: serial execution failed: %v", cs.ID, err)
			}
			reference, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: reference execution failed: %v", cs.ID, err)
			}
			if !bench.SameResult(serial, reference) {
				t.Errorf("%s: serial and reference results differ", cs.ID)
			}
			for _, par := range []int{2, 4, 8} {
				p, err := exec.Compile(db.Snapshot(), stmt, par)
				if err != nil {
					t.Fatalf("%s: parallel planning failed: %v", cs.ID, err)
				}
				if p.OperatorCounts()["exchange"] > 0 {
					exchanges++
				}
				parallel, err := exec.Run(context.Background(), db.Snapshot(), p, exec.RunOpts{})
				if err != nil {
					t.Fatalf("%s: parallel execution (par=%d) failed: %v", cs.ID, par, err)
				}
				if err := sameRows(serial, parallel); err != nil {
					t.Errorf("%s: parallel (par=%d) diverges from serial: %v\nsql: %s",
						cs.ID, par, err, cs.Gold)
				}
				if !bench.SameResult(parallel, reference) {
					t.Errorf("%s: parallel (par=%d) and reference results differ", cs.ID, par)
				}
			}
		}
	}
	if exchanges == 0 {
		t.Fatal("no plan in the corpus got an exchange operator; the parallel path was never exercised")
	}
}

// TestParallelJoinHeavyRowForRow pins the F5/F6 benchmark queries —
// the ones the parallel speedup is claimed on — to exact serial
// equality at every worker degree.
func TestParallelJoinHeavyRowForRow(t *testing.T) {
	db := dataset.University(4)
	for _, q := range []string{
		"SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7",
		"SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name",
		"SELECT d.name, AVG(s.gpa) FROM students s, departments d " +
			"WHERE s.dept_id = d.dept_id GROUP BY d.name ORDER BY AVG(s.gpa) DESC",
	} {
		stmt := sql.MustParse(q)
		serial, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 3, 4, 8, 16} {
			parallel, err := compileRun(db.Snapshot(), stmt, par, exec.RunOpts{})
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if err := sameRows(serial, parallel); err != nil {
				t.Errorf("par=%d: %v\nsql: %s", par, err, q)
			}
		}
	}
}

// TestParallelExplain checks the plan rewrite is visible: the exchange
// operator names its worker degree and partitioned scan, and every
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
	// A COUNT folds inside the exchange's workers and says so; the same
	// plan with an AVG aggregates the merged stream and carries no mark.
	if !strings.Contains(out, "group by d.name [partial ×morsel]\n") {
		t.Errorf("Explain misses the per-morsel fold on the COUNT aggregate:\n%s", out)
	}
	avg, err := exec.Compile(db.Snapshot(), sql.MustParse(strings.Replace(stmt.String(), "COUNT(*)", "AVG(s.gpa)", 1)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if out := avg.Explain(); !strings.Contains(out, "exchange workers=4") || strings.Contains(out, "partial") {
		t.Errorf("an AVG aggregate must stay above the exchange's merge, unmarked:\n%s", out)
	}

	// Parallelism 1 must reproduce the serial plan exactly.
	serial, err := exec.Compile(db.Snapshot(), stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := exec.Compile(db.Snapshot(), stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Explain() != plain.Explain() {
		t.Errorf("Parallelism=1 plan differs from the serial plan:\n%s\nvs\n%s",
			serial.Explain(), plain.Explain())
	}
}

// TestParallelSkipsStreamingLimit: a LIMIT without ORDER BY stops
// reading early in the serial pipeline; parallelizing it would
// materialize every worker's output first, so the rewrite declines.
func TestParallelSkipsStreamingLimit(t *testing.T) {
	db := dataset.University(4)
	limited, err := exec.Compile(db.Snapshot(), sql.MustParse("SELECT name FROM students LIMIT 3"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := limited.OperatorCounts()["exchange"]; n != 0 {
		t.Errorf("streaming LIMIT got %d exchange operators, want 0", n)
	}

	// With a Sort below the Limit everything is read anyway — eligible.
	sorted, err := exec.Compile(db.Snapshot(), sql.MustParse("SELECT name FROM students ORDER BY gpa DESC LIMIT 3"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := sorted.OperatorCounts()["exchange"]; n != 1 {
		t.Errorf("sorted LIMIT got %d exchange operators, want 1", n)
	}

	serial, err := exec.Query(db.Snapshot(), sql.MustParse("SELECT name FROM students ORDER BY gpa DESC LIMIT 3"))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := exec.Run(context.Background(), db.Snapshot(), sorted, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(serial, parallel); err != nil {
		t.Errorf("sorted LIMIT diverges: %v", err)
	}
}
