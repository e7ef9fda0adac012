package exec_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestRowsAfterEvictAll: under a spill-enabled store a sealed segment
// is a table's only copy of its rows, so the readers that decode whole
// tables — the reference executor's row materializer and the CSV
// writer — must fault evicted payloads back in and give exactly the
// rows they gave while every payload was resident.
func TestRowsAfterEvictAll(t *testing.T) {
	db := dataset.Telemetry(6000)
	db.Table("events").SetSegmentRows(512)
	queries := []string{
		"SELECT * FROM events WHERE status = 503",
		"SELECT events.event_id, devices.region FROM events, devices WHERE events.device_id = devices.device_id AND events.level = 'error'",
		"SELECT service, COUNT(*), AVG(latency_ms) FROM events GROUP BY service",
	}
	read := func() ([]*exec.Result, []byte) {
		sn := db.Snapshot()
		var res []*exec.Result
		for _, q := range queries {
			r, err := exec.ReferenceQueryAt(sn, sql.MustParse(q))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			res = append(res, r)
		}
		var csv bytes.Buffer
		if err := db.Table("events").WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes()
	}

	wantRes, wantCSV := read()
	if err := db.EnableSpill(t.TempDir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	db.Snapshot().Table("events").Segments() // adopt: every sealed segment spills
	c := db.SegCache()
	c.EvictAll()
	gotRes, gotCSV := read()
	if st := c.Stats(); st.Misses == 0 || st.FaultErrs != 0 {
		t.Fatalf("reads after EvictAll faulted %d segments in (%d errors)", st.Misses, st.FaultErrs)
	}
	for i, q := range queries {
		if err := sameResult(gotRes[i], wantRes[i], true); err != nil {
			t.Errorf("%s: after EvictAll: %v", q, err)
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
