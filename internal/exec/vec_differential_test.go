package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestVecDifferentialCorpus runs every gold query of the full
// benchmark corpus (all domains) through the vectorized pipeline and
// the row-at-a-time pipeline at parallelism 1 and N, requiring
// ROW-FOR-ROW identical output (order included) between the two modes
// and bag-equal output against the materializing reference path. This
// is the vectorized engine's end-to-end safety net: typed hash keys,
// selection vectors, batch kernels and the node-by-node fallback must
// never change results.
func TestVecDifferentialCorpus(t *testing.T) {
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
			reference, err := exec.ReferenceQueryAt(sn, stmt)
			if err != nil {
				t.Fatalf("%s: reference execution failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			for _, par := range []int{1, 4} {
				vec, err := compileRun(sn, stmt, par, exec.RunOpts{})
				if err != nil {
					t.Fatalf("%s: vectorized execution failed (par=%d): %v\n%s", cs.ID, par, err, cs.Gold)
				}
				row, err := compileRun(sn, stmt, par, exec.RunOpts{NoVec: true})
				if err != nil {
					t.Fatalf("%s: row execution failed (par=%d): %v\n%s", cs.ID, par, err, cs.Gold)
				}
				if err := rowsIdentical(vec, row); err != nil {
					t.Errorf("%s (par=%d): vectorized vs row-at-a-time: %v\nsql: %s", cs.ID, par, err, cs.Gold)
				}
				if !bench.SameResult(vec, reference) {
					t.Errorf("%s (par=%d): vectorized and reference results differ\nsql: %s", cs.ID, par, cs.Gold)
				}
			}
		}
	}
}

// compileRun compiles stmt at degree par and runs it under o, all on
// the one pinned snapshot — the pair the differential suites vary one
// axis of at a time.
func compileRun(sn *store.Snapshot, stmt *sql.SelectStmt, par int, o exec.RunOpts) (*exec.Result, error) {
	p, err := exec.Compile(sn, stmt, par)
	if err != nil {
		return nil, err
	}
	return exec.Run(context.Background(), sn, p, o)
}

func rowsIdentical(a, b *exec.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !bench.RowsEqual(a.Rows[i], b.Rows[i]) {
			return fmt.Errorf("row %d differs: %s vs %s", i, a.Rows[i], b.Rows[i])
		}
	}
	return nil
}

// TestVecDifferentialScaled repeats the vectorized differential check
// at a larger scale on the join-heavy university corpus, and again
// with all indexes dropped (exercising the full-scan batch path on
// both sides).
func TestVecDifferentialScaled(t *testing.T) {
	for _, drop := range []bool{false, true} {
		db := dataset.University(2)
		if drop {
			db.DropAllIndexes()
		}
		for _, cs := range bench.Corpus("university") {
			stmt, err := sql.Parse(cs.Gold)
			if err != nil {
				t.Fatal(err)
			}
			vec, err := exec.Query(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: vectorized execution failed: %v", cs.ID, err)
			}
			row, err := compileRun(db.Snapshot(), stmt, 1, exec.RunOpts{NoVec: true})
			if err != nil {
				t.Fatalf("%s: row execution failed: %v", cs.ID, err)
			}
			if err := rowsIdentical(vec, row); err != nil {
				t.Errorf("%s (drop=%v): %v\nsql: %s", cs.ID, drop, err, cs.Gold)
			}
		}
	}
}

// TestVecFallback pins the node-by-node fallback: plans containing
// non-vectorizable expressions (subqueries, LIKE over a computed
// pattern) must still execute — partially in batches where possible —
// and agree with the row path.
func TestVecFallback(t *testing.T) {
	db := dataset.University(1)
	queries := []string{
		// Correlated subquery in WHERE: the filter falls back, joins
		// and scans below it stay vectorized.
		"SELECT name FROM students WHERE gpa > (SELECT AVG(gpa) FROM students s2 WHERE s2.dept_id = students.dept_id)",
		// Uncorrelated IN subquery.
		"SELECT name FROM students WHERE dept_id IN (SELECT dept_id FROM departments WHERE name = 'Computer Science')",
		// EXISTS.
		"SELECT name FROM departments d WHERE EXISTS (SELECT 1 FROM students s WHERE s.dept_id = d.dept_id AND s.gpa > 3.9)",
		// Aggregate over a subquery-filtered join.
		"SELECT d.name, COUNT(*) FROM students s, departments d WHERE s.dept_id = d.dept_id " +
			"AND s.gpa > (SELECT AVG(gpa) FROM students) GROUP BY d.name ORDER BY d.name",
	}
	for _, q := range queries {
		stmt := sql.MustParse(q)
		p, err := plan.Compile(db.Snapshot(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if p.Vec {
			t.Errorf("plan unexpectedly fully vectorizable: %s", q)
		}
		vec, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("execution failed: %v\n%s", err, q)
		}
		row, err := compileRun(db.Snapshot(), stmt, 1, exec.RunOpts{NoVec: true})
		if err != nil {
			t.Fatalf("row execution failed: %v\n%s", err, q)
		}
		if err := rowsIdentical(vec, row); err != nil {
			t.Errorf("fallback differs from row path: %v\nsql: %s", err, q)
		}
	}
}

// TestVecExplainMarks pins the [vec] annotation: fully vectorizable
// plans mark every node, and a subquery filter loses the mark while
// its relational inputs keep it.
func TestVecExplainMarks(t *testing.T) {
	db := dataset.University(1)

	p, err := plan.Compile(db.Snapshot(), sql.MustParse(
		"SELECT d.name, COUNT(*) FROM students s, departments d "+
			"WHERE s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Vec {
		t.Fatal("join-aggregate plan should be fully vectorizable")
	}
	for _, line := range strings.Split(p.Explain(), "\n") {
		if !strings.Contains(line, "[vec]") {
			t.Errorf("fully vectorizable plan has an unmarked node: %q", line)
		}
	}

	p, err = plan.Compile(db.Snapshot(), sql.MustParse(
		"SELECT name FROM students WHERE dept_id IN (SELECT dept_id FROM departments)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Vec {
		t.Fatal("subquery plan should not be fully vectorizable")
	}
	explain := p.Explain()
	if !strings.Contains(explain, "filter") || containsFilterVec(explain) {
		t.Errorf("subquery filter should lose the [vec] mark:\n%s", explain)
	}
	if !strings.Contains(explain, "scan students cols=2/5 [est=120 segments=1 skipped=0] [vec]") {
		t.Errorf("scan below the fallback filter should keep [vec]:\n%s", explain)
	}
}

// TestVecAggBigIntExact: vectorized MIN/MAX over integers must compare
// exactly, like the row path's int store.Compare — a float64 round-trip
// collapses distinct values beyond 2^53.
func TestVecAggBigIntExact(t *testing.T) {
	s := schema.MustNew("big", []*schema.Table{{
		Name: "t",
		Columns: []schema.Column{
			{Name: "a", Type: schema.Int},
		},
	}}, nil)
	db := store.NewDB(s)
	big := int64(1 << 53)
	// Insertion order matters: the larger value first would win a
	// first-of-float-equals MIN.
	db.MustInsert("t", store.Int(big+1))
	db.MustInsert("t", store.Int(big))
	for _, q := range []string{
		"SELECT MIN(a) FROM t",
		"SELECT MAX(a) FROM t",
	} {
		stmt := sql.MustParse(q)
		vec, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		row, err := compileRun(db.Snapshot(), stmt, 1, exec.RunOpts{NoVec: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsIdentical(vec, row); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

func containsFilterVec(explain string) bool {
	for _, line := range strings.Split(explain, "\n") {
		if strings.Contains(line, "filter") && strings.Contains(line, "[vec]") {
			return true
		}
	}
	return false
}
