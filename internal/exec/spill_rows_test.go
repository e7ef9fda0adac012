package exec_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestRowsAfterEvictAll: under a spill-enabled store a sealed segment
// is a table's only copy of its rows, so every reader — the reference
// executor's row materializer, the engine at par 1 and 4, and the CSV
// writer — must fault evicted payloads back in and give exactly the
// rows it gave while every payload was resident. The cache holds an
// eighth of the segments' bytes, and every read starts cold.
func TestRowsAfterEvictAll(t *testing.T) {
	const n = 6000
	db := dataset.Telemetry(n)
	db.Table("events").SetSegmentRows(512)
	queries := []string{
		"SELECT * FROM events WHERE status = 503",
		"SELECT events.event_id, devices.region FROM events, devices WHERE events.device_id = devices.device_id AND events.level = 'error'",
		"SELECT service, COUNT(*), AVG(latency_ms) FROM events GROUP BY service",
		"SELECT COUNT(*), AVG(latency_ms) FROM events",
		fmt.Sprintf("SELECT COUNT(*) FROM events WHERE ts BETWEEN %d AND %d", tsAt(n, 0.49), tsAt(n, 0.51)),
		"SELECT service, COUNT(*) FROM events WHERE level = 'error' GROUP BY service ORDER BY service",
	}
	pars := []int{0, 1, 4} // 0 is the reference executor
	evict := func() {
		if c := db.SegCache(); c != nil {
			c.EvictAll()
		}
	}
	read := func() ([]*exec.Result, []byte) {
		sn := db.Snapshot()
		var res []*exec.Result
		for _, q := range queries {
			stmt := sql.MustParse(q)
			for _, par := range pars {
				evict()
				r, err := exec.ReferenceQueryAt(sn, stmt)
				if par > 0 {
					r, err = compileRun(sn, stmt, par, exec.RunOpts{})
				}
				if err != nil {
					t.Fatalf("par=%d: %s: %v", par, q, err)
				}
				res = append(res, r)
			}
		}
		evict()
		var csv bytes.Buffer
		if err := db.Table("events").WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes()
	}

	wantRes, wantCSV := read()
	if err := db.EnableSpill(t.TempDir(), int64(db.Snapshot().Table("events").Segments().Bytes())/8); err != nil {
		t.Fatal(err)
	}
	db.Snapshot().Table("events").Segments() // adopt: every sealed segment spills
	gotRes, gotCSV := read()
	if st := db.SegCache().Stats(); st.Misses == 0 || st.FaultErrs != 0 {
		t.Fatalf("reads after EvictAll faulted %d segments in (%d errors)", st.Misses, st.FaultErrs)
	}
	for i := range gotRes {
		if err := sameResult(gotRes[i], wantRes[i], true); err != nil {
			t.Errorf("par=%d: %s: after EvictAll: %v", pars[i%len(pars)], queries[i/len(pars)], err)
		}
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("WriteCSV after EvictAll wrote %d bytes that differ from the %d written before", len(gotCSV), len(wantCSV))
	}
}

// TestPlanningFaultsNoSegment: planning reads row counts and the
// resident zone maps, never a segment's values, so preparing the
// ask_scan region join over evicted segments faults none of them back
// in, and plans what the same data planned while resident.
func TestPlanningFaultsNoSegment(t *testing.T) {
	const rows = 1 << 14
	var q string
	for _, tc := range scanTemplatesAt(rows) {
		if tc.name == "region_join" {
			q = tc.sql
		}
	}
	telemetry := func() *store.DB {
		db := dataset.Telemetry(rows)
		if err := db.Table("events").SetSegmentRows(512); err != nil {
			t.Fatal(err)
		}
		return db
	}
	prepare := func(db *store.DB) string {
		pq, _, err := exec.Prepare(db.Snapshot(), sql.MustParse(q), 2)
		if err != nil {
			t.Fatal(err)
		}
		return pq.Tmpl.Plan().Explain()
	}

	want := prepare(telemetry())
	db := telemetry()
	if err := db.EnableSpill(t.TempDir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	db.Snapshot().Table("events").Segments() // adopt: every sealed segment spills
	c := db.SegCache()
	c.EvictAll()
	before := c.Stats()
	got := prepare(db)
	after := c.Stats()
	if misses, bytes := after.Misses-before.Misses, after.FaultBytes-before.FaultBytes; misses != 0 || bytes != 0 {
		t.Errorf("planning over evicted segments faulted %d in (%d bytes)", misses, bytes)
	}
	if got != want {
		t.Errorf("plan after EvictAll:\n%s\nwant the plan prepared while resident:\n%s", got, want)
	}
}
