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

// sameBag compares two results as bags of rows, for comparisons whose
// row order legitimately differs (a reference executor, another plan
// shape). Float cells are quantized to 9 significant digits before
// keying: float aggregation is non-associative, so summing in another
// order legitimately moves AVG/SUM by an ulp, while any real defect
// (lost or doubled rows) shifts whole digits.
func sameBag(a, b *exec.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	key := func(r store.Row) string {
		var sb strings.Builder
		for _, v := range r {
			if v.Kind() == store.KindFloat {
				f, _ := v.AsFloat()
				fmt.Fprintf(&sb, "%.9g", f)
			} else {
				sb.WriteString(v.Key())
			}
			sb.WriteByte('\x1f')
		}
		return sb.String()
	}
	counts := map[string]int{}
	for _, r := range a.Rows {
		counts[key(r)]++
	}
	for _, r := range b.Rows {
		k := key(r)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Errorf("row bags differ at %s", r)
		}
	}
	return nil
}

// tsAt is the ts value a fraction of the way through a telemetry log
// of n rows: ts starts at 1_700_000_000 and advances one tick every 8
// rows, so the log is clustered on ts.
func tsAt(n int, frac float64) int64 {
	return 1_700_000_000 + int64(frac*float64(n/8))
}

// TestPartitionPruneUnderExchange pins that an exchange skips what the
// serial scan skips: its morsels tile the table, so at every degree the
// run reads and skips the segments par 1 does, counting each once. The
// probes are ts windows over a ts-clustered log cut into 512-row
// segments; the row count is no multiple of 512, so morsels start
// mid-segment at every degree, and zone maps skip most of the table.
// Each probe runs as a COUNT folded per morsel, an AVG whose batches
// are kept, and a bare projection.
func TestPartitionPruneUnderExchange(t *testing.T) {
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
			stmt := sql.MustParse(q)
			ref, err := exec.ReferenceQueryAt(sn, stmt)
			if err != nil {
				t.Fatal(err)
			}
			var serial *exec.Result
			var serialSeg [2]int64
			for _, par := range []int{1, 2, 4, 8} {
				p, err := exec.Compile(sn, stmt, par)
				if err != nil {
					t.Fatal(err)
				}
				if par > 1 && p.OperatorCounts()["exchange"] != 1 {
					t.Fatalf("par=%d: want an exchange:\n%s\nsql: %s", par, p.Explain(), q)
				}
				var segc store.SegCounters
				got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{SegC: &segc})
				if err != nil {
					t.Fatalf("par=%d: %v\nsql: %s", par, err, q)
				}
				gotSeg := [2]int64{segc.Scanned.Load(), segc.Skipped.Load()}
				if err := sameBag(got, ref); err != nil {
					t.Errorf("par=%d vs reference: %v\nsql: %s", par, err, q)
				}
				if par == 1 {
					if gotSeg[1] == 0 {
						t.Fatalf("par=1: zone maps skipped no segment (scanned %d)\nsql: %s", gotSeg[0], q)
					}
					serial, serialSeg = got, gotSeg
					continue
				}
				if err := rowsIdentical(got, serial); err != nil {
					t.Errorf("par=%d vs par=1: %v\nsql: %s", par, err, q)
				}
				if gotSeg != serialSeg {
					t.Errorf("par=%d: segments scanned/skipped %v; par=1: %v\nsql: %s", par, gotSeg, serialSeg, q)
				}
			}
		}
	}
}

// TestPartitionPruneZeroSegIO pins the zone-map I/O contract on a
// spill-enabled, ts-clustered log: a ts < X probe must skip every
// segment whose zone map starts at or past X from resident zone maps
// alone — after evicting all segments to disk, the counted run may
// fault back at most the bytes of the segments zone maps keep, serially
// and under an exchange.
func TestPartitionPruneZeroSegIO(t *testing.T) {
	const n = 16_384
	db := dataset.Telemetry(n)
	db.Table("events").SetSegmentRows(512)
	if err := db.EnableSpill(t.TempDir(), 64<<20); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	tab := sn.Table("events")
	ss := tab.Segments() // build + adopt: every sealed segment spills

	bound := tsAt(n, 0.125)
	stmt := sql.MustParse(fmt.Sprintf(
		"SELECT COUNT(*), MIN(status), MAX(status) FROM events WHERE ts < %d", bound))
	// Baseline off the rows: no segment, so no fault can reach it.
	want, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tsCol := tab.ColIndex("ts")
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

	for _, par := range []int{1, 4} {
		p, err := exec.Compile(sn, stmt, par)
		if err != nil {
			t.Fatal(err)
		}
		db.SegCache().EvictAll()
		before := db.SegCache().Stats()
		var segc store.SegCounters
		got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Par: par, SegC: &segc})
		if err != nil {
			t.Fatal(err)
		}
		after := db.SegCache().Stats()

		if err := rowsIdentical(got, want); err != nil {
			t.Errorf("par=%d: skipping run vs reference baseline: %v", par, err)
		}
		if skipped := segc.Skipped.Load(); skipped != int64(len(ss.Segs)-keptSegs) {
			t.Errorf("par=%d: skipped %d segments, want %d (scanned %d)",
				par, skipped, len(ss.Segs)-keptSegs, segc.Scanned.Load())
		}
		faulted := after.FaultBytes - before.FaultBytes
		if faulted == 0 {
			t.Fatalf("par=%d: probe faulted nothing — segments never reached the spill cache, the I/O bound below is vacuous", par)
		}
		if faulted > kept {
			t.Errorf("par=%d: faulted %d bytes but the kept segments hold only %d — skipped segments did segment I/O",
				par, faulted, kept)
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
