package exec_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestKeyLookupByZoneMap pins what a question naming a key costs now
// that a scan is the only access path. On a multi-segment table an
// equality on an ascending key is refuted by every zone map but one,
// so the scan decodes exactly one segment; an equality on a foreign
// key, whose values repeat across the whole table, decodes every
// segment. Both answers equal the reference executor's as a bag at
// degrees 1 and 4; a row-returning plan gets no workers at either, so
// both read the table serially.
func TestKeyLookupByZoneMap(t *testing.T) {
	const rows, segRows, devices = 1024, 64, 8
	s := schema.MustNew("keys", []*schema.Table{{
		Name:       "events",
		PrimaryKey: "event_id",
		Columns: []schema.Column{
			{Name: "event_id", Type: schema.Int},
			{Name: "device_id", Type: schema.Int},
			{Name: "latency_ms", Type: schema.Float},
		},
	}}, nil)
	db := store.NewDB(s)
	batch := make([]store.Row, rows)
	for i := range batch {
		batch[i] = store.Row{store.Int(int64(i)), store.Int(int64(i % devices)), store.Float(float64(i%97) / 4)}
	}
	db.MustBulkInsert("events", batch)
	db.Table("events").SetSegmentRows(segRows)
	segs := rows / segRows

	for _, tc := range []struct {
		query   string
		scanned int64
	}{
		{"SELECT event_id, latency_ms FROM events WHERE event_id = 700", 1},
		{"SELECT event_id, latency_ms FROM events WHERE device_id = 3", int64(segs)},
	} {
		stmt := sql.MustParse(tc.query)
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", tc.query, par), func(t *testing.T) {
				sn := db.Snapshot()
				p, err := exec.Compile(sn, stmt, par)
				if err != nil {
					t.Fatal(err)
				}
				if p.Par > 1 {
					t.Fatalf("a row-returning plan fans out at par %d:\n%s", par, p.Explain())
				}
				var segc store.SegCounters
				got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{SegC: &segc})
				if err != nil {
					t.Fatal(err)
				}
				if n := segc.Scanned.Load(); n != tc.scanned {
					t.Errorf("scanned %d of %d segments, want %d\n%s", n, segs, tc.scanned, p.Explain())
				}
				if n := segc.Scanned.Load() + segc.Skipped.Load(); n != int64(segs) {
					t.Errorf("scanned+skipped = %d, want every one of %d segments counted once", n, segs)
				}
				want, err := exec.ReferenceQueryAt(sn, stmt)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Rows) == 0 {
					t.Error("the reference answers no rows")
				} else if err := sameResult(got, want, false); err != nil {
					t.Errorf("vs reference: %v", err)
				}
			})
		}
	}
}
