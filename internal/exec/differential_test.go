package exec_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// TestDifferentialCorpus runs every gold query of the full benchmark
// corpus (all domains) through both the streaming planner executor and
// the naive materializing reference path and requires identical result
// bags. This is the planner's end-to-end safety net: pushdown, column
// pruning, index access paths and join reordering must never change
// results.
func TestDifferentialCorpus(t *testing.T) {
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
			planned, err := exec.Query(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: planned execution failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			reference, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: reference execution failed: %v\n%s", cs.ID, err, cs.Gold)
			}
			if !bench.SameResult(planned, reference) {
				t.Errorf("%s: planned and reference results differ\nsql: %s\nplanned: %d rows, reference: %d rows",
					cs.ID, cs.Gold, len(planned.Rows), len(reference.Rows))
			}
		}
	}
}

// TestNullLiteralComparisons: comparisons against a NULL literal must
// reject every row under three-valued logic. Regression test for the
// optimizer consuming such conjuncts into index probes, whose
// NULL-keyed entries or unbounded range scans inverted the semantics.
func TestNullLiteralComparisons(t *testing.T) {
	db := dataset.University(1)
	for _, q := range []string{
		"SELECT name FROM students WHERE id = NULL",
		"SELECT name FROM students WHERE id > NULL",
		"SELECT name FROM students WHERE id BETWEEN NULL AND 10",
	} {
		res, err := exec.Query(db.Snapshot(), sql.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: returned %d rows, want 0", q, len(res.Rows))
		}
	}
}

// TestDifferentialScaledIndexesDropped repeats the differential check
// at a larger scale with all indexes dropped, forcing the planner off
// its index access paths while the reference loses its prune — both
// must still agree.
func TestDifferentialScaledIndexesDropped(t *testing.T) {
	db := dataset.University(2)
	db.DropAllIndexes()
	for _, cs := range bench.Corpus("university") {
		stmt, err := sql.Parse(cs.Gold)
		if err != nil {
			t.Fatal(err)
		}
		planned, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("%s: planned execution failed: %v", cs.ID, err)
		}
		reference, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("%s: reference execution failed: %v", cs.ID, err)
		}
		if !bench.SameResult(planned, reference) {
			t.Errorf("%s: results differ without indexes\nsql: %s", cs.ID, cs.Gold)
		}
	}
}
