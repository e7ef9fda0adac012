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

// setSegmentRows reseals every table of the database at the given
// segment size, so corpus-scale data exercises multi-segment layouts.
func setSegmentRows(db *store.DB, n int) {
	for _, mt := range db.Schema.Tables {
		db.Table(mt.Name).SetSegmentRows(n)
	}
}

// TestSegDifferentialCorpus runs the full benchmark corpus over tiny
// segments (sizes chosen to straddle encoding and batch boundaries,
// including non-multiples of 64 and 1024) and requires the segment
// scan path and the row path — which reads no segment — to produce
// row-for-row identical output, serially and in parallel.
func TestSegDifferentialCorpus(t *testing.T) {
	for _, segRows := range []int{7, 100, 1025} {
		for _, domain := range dataset.Names() {
			db, err := dataset.ByName(domain, 1)
			if err != nil {
				t.Fatal(err)
			}
			setSegmentRows(db, segRows)
			for _, cs := range bench.Corpus(domain) {
				stmt, err := sql.Parse(cs.Gold)
				if err != nil {
					t.Fatalf("%s: gold does not parse: %v", cs.ID, err)
				}
				for _, par := range []int{1, 4} {
					sn := db.Snapshot()
					p, err := exec.Compile(sn, stmt, par)
					if err != nil {
						t.Fatalf("%s: compile failed: %v", cs.ID, err)
					}
					seg, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
					if err != nil {
						t.Fatalf("%s: segment execution failed (segRows=%d par=%d): %v", cs.ID, segRows, par, err)
					}
					row, err := exec.Run(context.Background(), sn, p, exec.RunOpts{NoVec: true})
					if err != nil {
						t.Fatalf("%s: row execution failed: %v", cs.ID, err)
					}
					if err := rowsIdentical(seg, row); err != nil {
						t.Errorf("%s (segRows=%d par=%d): segment vs row-at-a-time: %v\nsql: %s",
							cs.ID, segRows, par, err, cs.Gold)
					}
				}
			}
		}
	}
}

// segSkipDB builds a table whose int column is clustered (monotonic)
// and whose text column is low-cardinality, with NULLs sprinkled on a
// rotating schedule — the shape zone maps and dictionary encoding are
// built for. Sizes deliberately avoid multiples of 64 and 1024.
func segSkipDB(t *testing.T, n int) *store.DB {
	t.Helper()
	s := schema.MustNew("segskip", []*schema.Table{{
		Name: "events",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "ts", Type: schema.Int},
			{Name: "level", Type: schema.Text},
			{Name: "score", Type: schema.Float},
		},
	}}, nil)
	db := store.NewDB(s)
	levels := []string{"debug", "info", "warn", "error"}
	rows := make([]store.Row, 0, n)
	for i := 0; i < n; i++ {
		row := store.Row{
			store.Int(int64(i)),
			store.Int(int64(i / 3)), // clustered, monotonic
			store.Text(levels[i%len(levels)]),
			store.Float(float64(i) * 0.25),
		}
		if i%7 == 3 {
			row[3] = store.Null()
		}
		if i%11 == 5 {
			row[2] = store.Null()
		}
		rows = append(rows, row)
	}
	db.MustBulkInsert("events", rows)
	return db
}

// TestSegZoneSkipCounts pins that zone maps actually skip segments on
// selective clustered predicates — and that skipping never changes
// results. Segment sizes straddle batch boundaries (not multiples of
// 64 or 1024) and include single-row tails.
func TestSegZoneSkipCounts(t *testing.T) {
	const n = 5000
	for _, segRows := range []int{33, 999, 1001} {
		db := segSkipDB(t, n)
		setSegmentRows(db, segRows)
		queries := []struct {
			q        string
			wantSkip bool
		}{
			{"SELECT COUNT(*) FROM events WHERE ts BETWEEN 100 AND 130", true},
			{"SELECT id FROM events WHERE ts = 42 ORDER BY id", true},
			{"SELECT COUNT(*) FROM events WHERE ts < 50", true},
			{"SELECT COUNT(*) FROM events WHERE ts >= 1600", true},
			{"SELECT COUNT(*) FROM events WHERE ts IN (10, 11, 1650)", true},
			// Unselective on an unclustered column: nothing skippable.
			{"SELECT COUNT(*) FROM events WHERE level = 'error'", false},
		}
		for _, tc := range queries {
			stmt := sql.MustParse(tc.q)
			sn := db.Snapshot()
			p, err := exec.Query(sn, stmt)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			plan, err := exec.Compile(sn, stmt, 1)
			if err != nil {
				t.Fatal(err)
			}
			var c store.SegCounters
			counted, err := exec.Run(context.Background(), sn, plan, exec.RunOpts{SegC: &c})
			if err != nil {
				t.Fatalf("%s: counted run: %v", tc.q, err)
			}
			if err := rowsIdentical(counted, p); err != nil {
				t.Errorf("%s (segRows=%d): counted vs plain: %v", tc.q, segRows, err)
			}
			// The row executor consults no zone map: the unskipped oracle.
			unskipped, err := exec.Run(context.Background(), sn, plan, exec.RunOpts{NoVec: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := rowsIdentical(counted, unskipped); err != nil {
				t.Errorf("%s (segRows=%d): skipping changed results: %v", tc.q, segRows, err)
			}
			skipped := c.Skipped.Load()
			if tc.wantSkip && skipped == 0 {
				t.Errorf("%s (segRows=%d): expected zone-map skips, got none (scanned=%d)",
					tc.q, segRows, c.Scanned.Load())
			}
			if !tc.wantSkip && skipped != 0 {
				t.Errorf("%s (segRows=%d): unexpected skips: %d", tc.q, segRows, skipped)
			}
		}
	}
}

// TestSegSkipPrepared pins bind-time skip derivation: one prepared
// template, rebound with different constants, must skip according to
// each binding's values — and always match the row executor, which
// consults no zone map.
func TestSegSkipPrepared(t *testing.T) {
	db := segSkipDB(t, 5000)
	setSegmentRows(db, 500)
	sn := db.Snapshot()
	pq, params, err := exec.Prepare(sn, sql.MustParse(
		"SELECT COUNT(*) FROM events WHERE ts BETWEEN 10 AND 20"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 2 {
		t.Fatalf("expected 2 lifted params, got %d", len(params))
	}
	type binding struct {
		lo, hi   int64
		wantSkip bool
	}
	for _, b := range []binding{
		{10, 20, true},        // narrow range near the start
		{0, 1_000_000, false}, // covers every segment
		{900, 930, true},      // narrow range mid-table
	} {
		ps := []store.Value{store.Int(b.lo), store.Int(b.hi)}
		p, _, err := pq.Bind(sn, ps, 1)
		if err != nil {
			t.Fatal(err)
		}
		var c store.SegCounters
		got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Params: ps, SegC: &c})
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Params: ps, NoVec: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsIdentical(got, want); err != nil {
			t.Errorf("binding [%d,%d]: %v", b.lo, b.hi, err)
		}
		if b.wantSkip && c.Skipped.Load() == 0 {
			t.Errorf("binding [%d,%d]: expected skips, scanned=%d skipped=0",
				b.lo, b.hi, c.Scanned.Load())
		}
		if !b.wantSkip && c.Skipped.Load() != 0 {
			t.Errorf("binding [%d,%d]: unexpected skips: %d", b.lo, b.hi, c.Skipped.Load())
		}
	}
	// A NULL bound makes the predicate non-TRUE everywhere (3VL), so
	// every segment skips without being decoded. Bind rejects NULL
	// parameters, so this arrives as a literal.
	p, err := exec.Compile(sn, sql.MustParse(
		"SELECT COUNT(*) FROM events WHERE ts > NULL"), 1)
	if err != nil {
		t.Fatal(err)
	}
	var c store.SegCounters
	got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{SegC: &c})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(context.Background(), sn, p, exec.RunOpts{NoVec: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rowsIdentical(got, want); err != nil {
		t.Errorf("NULL bound: %v", err)
	}
	if c.Scanned.Load() != 0 {
		t.Errorf("NULL bound: expected all segments skipped, scanned=%d", c.Scanned.Load())
	}
}

// TestSegNullEdgeBatches runs aggregate and filter queries over tables
// whose null layout stresses bitmap word and batch boundaries:
// all-null columns, no-null columns, nulls exactly at multiples of 64
// and 1024, and single-row tables. The segment path must agree with
// the row path on every one.
func TestSegNullEdgeBatches(t *testing.T) {
	build := func(n int, nullAt func(i int) bool) *store.DB {
		s := schema.MustNew("nulledge", []*schema.Table{{
			Name: "t",
			Columns: []schema.Column{
				{Name: "a", Type: schema.Int},
				{Name: "b", Type: schema.Text},
			},
		}}, nil)
		db := store.NewDB(s)
		rows := make([]store.Row, 0, n)
		for i := 0; i < n; i++ {
			row := store.Row{store.Int(int64(i)), store.Text(fmt.Sprintf("v%d", i%3))}
			if nullAt(i) {
				row[0] = store.Null()
				row[1] = store.Null()
			}
			rows = append(rows, row)
		}
		db.MustBulkInsert("t", rows)
		return db
	}
	queries := []string{
		"SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) FROM t",
		"SELECT COUNT(*) FROM t WHERE a >= 0",
		"SELECT b, COUNT(*) FROM t WHERE a > 10 GROUP BY b ORDER BY b",
		"SELECT COUNT(*) FROM t WHERE b = 'v1'",
	}
	shapes := []struct {
		name   string
		n      int
		nullAt func(i int) bool
	}{
		{"all-null", 130, func(int) bool { return true }},
		{"no-null", 130, func(int) bool { return false }},
		{"word-boundary", 200, func(i int) bool { return i%64 == 0 || i%64 == 63 }},
		{"batch-boundary", 2100, func(i int) bool { return i%1024 == 0 || i%1024 == 1023 }},
		{"single-row", 1, func(int) bool { return false }},
		{"single-null-row", 1, func(int) bool { return true }},
		{"odd-tail", 1025 + 1, func(i int) bool { return i == 1025 }},
	}
	for _, sh := range shapes {
		for _, segRows := range []int{1, 63, 64, 65, 1000, 1024} {
			db := build(sh.n, sh.nullAt)
			setSegmentRows(db, segRows)
			for _, q := range queries {
				stmt := sql.MustParse(q)
				sn := db.Snapshot()
				vec, err := exec.Query(sn, stmt)
				if err != nil {
					t.Fatalf("%s/%s: %v", sh.name, q, err)
				}
				row, err := compileRun(sn, stmt, 1, exec.RunOpts{NoVec: true})
				if err != nil {
					t.Fatalf("%s/%s: %v", sh.name, q, err)
				}
				if err := rowsIdentical(vec, row); err != nil {
					t.Errorf("%s (segRows=%d): %s: %v", sh.name, segRows, q, err)
				}
			}
		}
	}
}
