package exec_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestVecDifferentialCorpus runs every gold query of the full
// benchmark corpus (all domains) at parallelism 1 and N, requiring
// bag-equal output against the materializing reference path and
// ROW-FOR-ROW identical output (order included) between the serial and
// the parallel run. This is the engine's end-to-end safety net: typed
// hash keys, selection vectors, batch kernels and the per-row fallback
// must never change results.
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
			var serial *exec.Result
			for _, par := range []int{1, 4} {
				vec, err := compileRun(sn, stmt, par, exec.RunOpts{})
				if err != nil {
					t.Fatalf("%s: vectorized execution failed (par=%d): %v\n%s", cs.ID, par, err, cs.Gold)
				}
				if serial == nil {
					serial = vec
				} else if err := rowsIdentical(vec, serial); err != nil {
					t.Errorf("%s (par=%d): parallel vs serial: %v\nsql: %s", cs.ID, par, err, cs.Gold)
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

// TestVecDifferentialScaled repeats the reference check at a larger
// scale on the join-heavy university corpus, and again with all
// indexes dropped (exercising the full-scan batch path).
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
			ref, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: reference execution failed: %v", cs.ID, err)
			}
			if !bench.SameResult(vec, ref) {
				t.Errorf("%s (drop=%v): vectorized and reference results differ\nsql: %s", cs.ID, drop, cs.Gold)
			}
		}
	}
}

// TestVecFallback pins what the kernels leave to the scalar
// evaluator: a correlated subquery in WHERE, an uncorrelated IN
// subquery, EXISTS and an aggregate over a subquery-filtered join all
// run (the operators below the per-row predicate batch-at-a-time as
// ever) and agree with the reference path.
func TestVecFallback(t *testing.T) {
	db := dataset.University(1)
	queries := []string{
		"SELECT name FROM students WHERE gpa > (SELECT AVG(gpa) FROM students s2 WHERE s2.dept_id = students.dept_id)",
		"SELECT name FROM students WHERE dept_id IN (SELECT dept_id FROM departments WHERE name = 'Computer Science')",
		"SELECT name FROM departments d WHERE EXISTS (SELECT 1 FROM students s WHERE s.dept_id = d.dept_id AND s.gpa > 3.9)",
		"SELECT d.name, COUNT(*) FROM students s, departments d WHERE s.dept_id = d.dept_id " +
			"AND s.gpa > (SELECT AVG(gpa) FROM students) GROUP BY d.name ORDER BY d.name",
	}
	for _, q := range queries {
		stmt := sql.MustParse(q)
		vec, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("execution failed: %v\n%s", err, q)
		}
		ref, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("reference execution failed: %v\n%s", err, q)
		}
		if !bench.SameResult(vec, ref) {
			t.Errorf("per-row fallback differs from the reference path\nsql: %s", q)
		}
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
		ref, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsIdentical(vec, ref); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}
