package exec_test

import (
	"context"
	"fmt"
	"strings"
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

// TestZoneSkipUnderExchange pins that an aggregate's workers skip what
// the serial scan skips: their morsels tile the table, so at every
// degree the run reads and skips the segments par 1 does, counting each
// once. The probes are ts windows over a ts-clustered log cut into
// 512-row segments; the row count is no multiple of 512, so morsels
// start mid-segment at every degree, and zone maps skip most of the
// table. Each probe runs as a COUNT and an AVG, each folded per worker;
// as a COUNT by region over the devices join, whose build the
// aggregate makes once before its workers start, so the devices
// segments count once at every degree; and as a bare projection, which
// gets no workers and reads the table serially at every degree.
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
			"SELECT devices.region, COUNT(*) FROM events, devices WHERE events.device_id = devices.device_id AND " +
				where + " GROUP BY devices.region",
			"SELECT event_id, status FROM events WHERE " + where,
		} {
			runs := differential(t, sn, q, diffOpts{pars: []int{1, 2, 4, 8}, counted: true})
			serial := runs[0].segc
			if serial.Skipped.Load() == 0 {
				t.Fatalf("par=1: zone maps skipped no segment (scanned %d)\nsql: %s", serial.Scanned.Load(), q)
			}
			for _, r := range runs[1:] {
				if want := strings.Contains(q, "COUNT(*)"); r.plan.Par > 1 != want {
					t.Fatalf("par=%d: want a plan that fans out %v:\n%s\nsql: %s", r.par, want, r.plan.Explain(), q)
				}
				if got, want := [2]int64{r.segc.Scanned.Load(), r.segc.Skipped.Load()},
					[2]int64{serial.Scanned.Load(), serial.Skipped.Load()}; got != want {
					t.Errorf("par=%d: segments scanned/skipped %v; par=1: %v\nsql: %s", r.par, got, want, q)
				}
			}
		}
	}
}

// TestZoneSkipZeroSegIO pins the zone-map skip contract on a
// ts-clustered log cut into 512-row segments: a run skips a segment
// its zone maps refute instead of reading it, and skipping never
// changes an answer. Each probe, counted at par 1
// and 4, must equal the reference executor — which reads no zone map —
// row for row, and at par 1 every segment must be either scanned or
// skipped, once. The ts < X probe must skip exactly the segments whose
// zone map starts at or past X, the ~2% ts window must skip some
// segments and scan fewer than the table holds, and a full scan and a
// grouped filter ride along.
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
	tsCol := sn.Table("events").ColIndex("ts")
	keptSegs := 0
	for _, seg := range ss.Segs {
		if seg.Zones[tsCol].Min.Int64() < bound {
			keptSegs++
		}
	}
	if keptSegs == 0 || keptSegs == len(ss.Segs) {
		t.Fatalf("probe keeps %d of %d segments — the skip count below is vacuous", keptSegs, len(ss.Segs))
	}

	for _, q := range probes {
		want, err := exec.ReferenceQueryAt(sn, sql.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			var segc store.SegCounters
			got, err := compileRun(sn, sql.MustParse(q), par, exec.RunOpts{SegC: &segc})
			if err != nil {
				t.Fatal(err)
			}
			scanned, skipped := segc.Scanned.Load(), segc.Skipped.Load()

			if err := sameResult(got, want, true); err != nil {
				t.Errorf("par=%d: vs reference: %v\nsql: %s", par, err, q)
			}
			if par == 1 && scanned+skipped != int64(len(ss.Segs)) {
				t.Errorf("par=1: scanned %d + skipped %d segments of %d\nsql: %s", scanned, skipped, len(ss.Segs), q)
			}
			switch q {
			case probes[0]:
				if skipped != int64(len(ss.Segs)-keptSegs) {
					t.Errorf("par=%d: skipped %d segments, want %d (scanned %d)", par, skipped, len(ss.Segs)-keptSegs, scanned)
				}
			case window:
				if skipped == 0 || scanned >= int64(len(ss.Segs)) {
					t.Errorf("par=%d: the window skipped %d segments and scanned %d of %d — zone maps saved no reads",
						par, skipped, scanned, len(ss.Segs))
				}
			}
		}
	}
}

// BenchmarkExchangeJoin is the allocation guard for an FK join under a
// fixed 4-worker aggregate: it builds the 4,096 devices once, before
// its workers start, cuts morsels over the 20,000 events, and folds
// the COUNT per morsel.
func BenchmarkExchangeJoin(b *testing.B) {
	db := dataset.Telemetry(20_000)
	sn := db.Snapshot()
	stmt := sql.MustParse("SELECT level, COUNT(*) FROM events, devices " +
		"WHERE events.device_id = devices.device_id GROUP BY level ORDER BY level")
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		b.Fatal(err)
	}
	if p.Par <= 1 {
		b.Fatal("plan has no workers")
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
