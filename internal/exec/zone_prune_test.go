package exec_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// tsAt is the ts value a fraction of the way through a telemetry log
// of n rows: ts starts at 1_700_000_000 and advances one tick every 8
// rows, so the log is clustered on ts.
func tsAt(n int, frac float64) int64 {
	return 1_700_000_000 + int64(frac*float64(n/8))
}

// TestZoneSkipUnderExchange pins that an exchange skips what the
// serial scan skips: its morsels tile the table, so at every degree the
// run reads and skips the segments par 1 does, counting each once. The
// probes are ts windows over a ts-clustered log cut into 512-row
// segments; the row count is no multiple of 512, so morsels start
// mid-segment at every degree, and zone maps skip most of the table.
// Each probe runs as a COUNT folded per morsel, an AVG whose batches
// are kept, and a bare projection.
func TestZoneSkipUnderExchange(t *testing.T) {
	const n = 30_000
	db := dataset.Telemetry(n)
	db.Table("events").SetSegmentRows(512)
	sn := db.Snapshot()
	for _, where := range []string{
		fmt.Sprintf("ts >= %d AND ts < %d", tsAt(n, 0.41), tsAt(n, 0.53)),
		fmt.Sprintf("ts < %d", tsAt(n, 0.125)),
	} {
		for _, q := range []string{
			"SELECT COUNT(*), MIN(ts) FROM events WHERE " + where,
			"SELECT COUNT(*), AVG(latency_ms) FROM events WHERE " + where,
			"SELECT event_id, status FROM events WHERE " + where,
		} {
			runs := differential(t, sn, q, diffOpts{pars: []int{1, 2, 4, 8}, counted: true})
			serial := runs[0].segc
			if serial.Skipped.Load() == 0 {
				t.Fatalf("par=1: zone maps skipped no segment (scanned %d)\nsql: %s", serial.Scanned.Load(), q)
			}
			for _, r := range runs[1:] {
				if r.plan.OperatorCounts()["exchange"] != 1 {
					t.Fatalf("par=%d: want an exchange:\n%s\nsql: %s", r.par, r.plan.Explain(), q)
				}
				if got, want := [2]int64{r.segc.Scanned.Load(), r.segc.Skipped.Load()},
					[2]int64{serial.Scanned.Load(), serial.Skipped.Load()}; got != want {
					t.Errorf("par=%d: segments scanned/skipped %v; par=1: %v\nsql: %s", r.par, got, want, q)
				}
			}
		}
	}
}

// TestZoneSkipZeroSegIO pins the zone-map I/O contract on a
// ts-clustered log spilled behind a cache an eighth of its segment
// bytes: after evicting every segment, a counted cold run at par 1 and
// 4 must equal the reference run over the resident segments row for
// row, and at par 1 fault exactly the segments it decodes. The ts < X
// probe must skip every segment whose zone map starts at or past X and
// fault back at most the bytes of those it keeps, the ~2% ts window
// must skip some segments and fault fewer than the table holds, and a
// full scan and a grouped filter ride along.
func TestZoneSkipZeroSegIO(t *testing.T) {
	const n = 16_384
	db := dataset.Telemetry(n)
	db.Table("events").SetSegmentRows(512)
	sn := db.Snapshot()
	ss := sn.Table("events").Segments()

	bound := tsAt(n, 0.125)
	window := fmt.Sprintf("SELECT COUNT(*) FROM events WHERE ts BETWEEN %d AND %d", tsAt(n, 0.49), tsAt(n, 0.51))
	probes := []string{
		fmt.Sprintf("SELECT COUNT(*), MIN(status), MAX(status) FROM events WHERE ts < %d", bound),
		window,
		"SELECT COUNT(*), AVG(latency_ms) FROM events",
		"SELECT service, COUNT(*) FROM events WHERE level = 'error' GROUP BY service ORDER BY service",
	}
	// Baselines before spill: every payload is resident, so no fault can
	// reach them.
	want := make([]*exec.Result, len(probes))
	for i, q := range probes {
		var err error
		if want[i], err = exec.ReferenceQueryAt(sn, sql.MustParse(q)); err != nil {
			t.Fatal(err)
		}
	}
	tsCol := sn.Table("events").ColIndex("ts")
	var kept int64
	keptSegs := 0
	for _, seg := range ss.Segs {
		if seg.Zones[tsCol].Min.Int64() < bound {
			kept += int64(seg.Bytes())
			keptSegs++
		}
	}
	if keptSegs == 0 || keptSegs == len(ss.Segs) {
		t.Fatalf("probe keeps %d of %d segments — the I/O bound below is vacuous", keptSegs, len(ss.Segs))
	}

	if err := db.EnableSpill(t.TempDir(), int64(ss.Bytes())/8); err != nil {
		t.Fatal(err)
	}
	sn = db.Snapshot()
	sn.Table("events").Segments() // adopt: every sealed segment spills
	c := db.SegCache()
	for i, q := range probes {
		for _, par := range []int{1, 4} {
			c.EvictAll()
			before := c.Stats()
			var segc store.SegCounters
			got, err := compileRun(sn, sql.MustParse(q), par, exec.RunOpts{SegC: &segc})
			if err != nil {
				t.Fatal(err)
			}
			after := c.Stats()
			faults, faulted := after.Misses-before.Misses, after.FaultBytes-before.FaultBytes
			scanned, skipped := segc.Scanned.Load(), segc.Skipped.Load()

			if err := sameResult(got, want[i], true); err != nil {
				t.Errorf("par=%d: cold run vs resident reference: %v\nsql: %s", par, err, q)
			}
			if faults == 0 {
				t.Fatalf("par=%d: probe faulted nothing — segments never reached the spill cache\nsql: %s", par, q)
			}
			if par == 1 && faults != scanned {
				t.Errorf("par=1: %d faults for %d decoded segments — a skipped segment did segment I/O\nsql: %s", faults, scanned, q)
			}
			switch q {
			case probes[0]:
				if skipped != int64(len(ss.Segs)-keptSegs) {
					t.Errorf("par=%d: skipped %d segments, want %d (scanned %d)", par, skipped, len(ss.Segs)-keptSegs, scanned)
				}
				if faulted > kept {
					t.Errorf("par=%d: faulted %d bytes but the kept segments hold only %d — skipped segments did segment I/O",
						par, faulted, kept)
				}
			case window:
				if skipped == 0 || faults >= int64(len(ss.Segs)) {
					t.Errorf("par=%d: the window skipped %d segments and faulted %d of %d — zone maps saved no I/O",
						par, skipped, faults, len(ss.Segs))
				}
			}
		}
	}
}

// BenchmarkExchangeJoin is the allocation guard for an FK join under a
// fixed 4-worker exchange: the exchange cuts morsels over the 20,000
// events, builds the 4,096 devices once, and folds the COUNT per
// morsel.
func BenchmarkExchangeJoin(b *testing.B) {
	db := dataset.Telemetry(20_000)
	sn := db.Snapshot()
	stmt := sql.MustParse("SELECT level, COUNT(*) FROM events, devices " +
		"WHERE events.device_id = devices.device_id GROUP BY level ORDER BY level")
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		b.Fatal(err)
	}
	if p.OperatorCounts()["exchange"] == 0 {
		b.Fatal("plan has no exchange")
	}
	if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil { // warm-up: builds segments
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
