package exec_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// TestDifferentialCorpus runs every gold query of the full benchmark
// corpus (all domains) through both the streaming planner executor and
// the naive materializing reference path and requires identical result
// bags. This is the planner's end-to-end safety net: pushdown, zone-map
// skips, column pruning and join reordering must never change results.
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
// reject every row under three-valued logic, zone-map skips included:
// a NULL bound must never widen into "every segment qualifies".
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

// TestDifferentialScaled repeats the differential check
// at a larger scale now that no table has an index: key equalities and
// ranges are plain scan filters, over small segments so zone maps skip
// most of each table. Serial and parallel runs must both agree with
// the reference, which skips nothing.
func TestDifferentialScaled(t *testing.T) {
	db := dataset.University(2)
	setSegmentRows(db, 64)
	for _, cs := range bench.Corpus("university") {
		stmt, err := sql.Parse(cs.Gold)
		if err != nil {
			t.Fatal(err)
		}
		reference, err := exec.ReferenceQueryAt(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("%s: reference execution failed: %v", cs.ID, err)
		}
		for _, par := range []int{1, 4} {
			sn := db.Snapshot()
			p, err := exec.Compile(sn, stmt, par)
			if err != nil {
				t.Fatalf("%s: compile failed: %v", cs.ID, err)
			}
			planned, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
			if err != nil {
				t.Fatalf("%s (par=%d): planned execution failed: %v", cs.ID, par, err)
			}
			if !bench.SameResult(planned, reference) {
				t.Errorf("%s (par=%d): results differ without indexes\nsql: %s", cs.ID, par, cs.Gold)
			}
		}
	}
}
