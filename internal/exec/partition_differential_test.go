package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// partitionAll hash-partitions every table of the database n ways on
// its primary key (or first column), the same default policy the core
// engine falls back to.
func partitionAll(t testing.TB, db *store.DB, n int) {
	t.Helper()
	for _, mt := range db.Schema.Tables {
		col := mt.PrimaryKey
		if col == "" {
			col = mt.Columns[0].Name
		}
		if err := db.PartitionTable(mt.Name, store.HashPartition(col, n)); err != nil {
			t.Fatalf("partition %s on %s: %v", mt.Name, col, err)
		}
	}
}

// sameBag compares two results as bags of rows. Hash partitioning
// reorders base tables (canonical order becomes partition
// concatenation), so cross-layout comparisons are order-insensitive;
// ordering correctness is covered by the same-layout row-for-row
// checks below. Float cells are quantized to 9 significant digits
// before keying: float aggregation is non-associative, so summing a
// reordered table legitimately moves AVG/SUM by an ulp, while any
// real defect (lost rows, doubled partitions) shifts whole digits.
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

// TestPartitionDifferentialCorpus runs the full benchmark corpus over
// every dataset partitioned 1, 8 and 32 ways and requires: (a) results
// bag-equal to the unpartitioned layout at every degree, and (b) the
// parallel run row-for-row identical to the serial run on the same
// layout — partition-wise execution and partition-aligned exchanges
// must merge in exactly serial order.
func TestPartitionDifferentialCorpus(t *testing.T) {
	for _, domain := range dataset.Names() {
		flat, err := dataset.ByName(domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		snFlat := flat.Snapshot()
		for _, parts := range []int{1, 8, 32} {
			db, err := dataset.ByName(domain, 1)
			if err != nil {
				t.Fatal(err)
			}
			partitionAll(t, db, parts)
			sn := db.Snapshot()
			for _, cs := range bench.Corpus(domain) {
				stmt, err := sql.Parse(cs.Gold)
				if err != nil {
					t.Fatalf("%s: gold does not parse: %v", cs.ID, err)
				}
				pFlat, err := exec.Compile(snFlat, stmt, 1)
				if err != nil {
					t.Fatalf("%s: flat compile failed: %v", cs.ID, err)
				}
				want, err := exec.Run(context.Background(), snFlat, pFlat, exec.RunOpts{})
				if err != nil {
					t.Fatalf("%s: flat execution failed: %v", cs.ID, err)
				}
				var serial *exec.Result
				for _, par := range []int{1, 4} {
					p, err := exec.Compile(sn, stmt, par)
					if err != nil {
						t.Fatalf("%s: compile failed (parts=%d par=%d): %v", cs.ID, parts, par, err)
					}
					got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
					if err != nil {
						t.Fatalf("%s: execution failed (parts=%d par=%d): %v", cs.ID, parts, par, err)
					}
					if err := sameBag(got, want); err != nil {
						t.Errorf("%s (parts=%d par=%d): vs unpartitioned: %v\nsql: %s",
							cs.ID, parts, par, err, cs.Gold)
					}
					if par == 1 {
						serial = got
					} else if err := rowsIdentical(got, serial); err != nil {
						t.Errorf("%s (parts=%d): parallel vs serial on same layout: %v\nsql: %s",
							cs.ID, parts, err, cs.Gold)
					}
				}
			}
		}
	}
}

// telemetryPair builds the telemetry database twice: co-partitioned
// `parts` ways on the FK column, and flat.
func telemetryPair(rows, parts int) (dbPart, dbFlat *store.DB) {
	dbPart = dataset.Telemetry(rows)
	for _, tab := range []string{"events", "devices"} {
		if err := dbPart.PartitionTable(tab, store.HashPartition("device_id", parts)); err != nil {
			panic(err)
		}
	}
	return dbPart, dataset.Telemetry(rows)
}

// TestPartitionWiseJoinDifferential pins the partition-wise join path:
// over co-partitioned telemetry tables the FK-join plans must engage
// the partition-wise operator (visible in Explain, with partition
// counts on the scans), and their results must match the flat layout
// row for row — every query carries an ORDER BY that makes its output
// deterministic across layouts.
func TestPartitionWiseJoinDifferential(t *testing.T) {
	const parts = 8
	dbPart, dbFlat := telemetryPair(20_000, parts)
	snP, snF := dbPart.Snapshot(), dbFlat.Snapshot()
	queries := []struct {
		q        string
		wantWise bool // aggregate over the co-partitioned join
	}{
		{"SELECT level, COUNT(*) FROM events, devices " +
			"WHERE events.device_id = devices.device_id GROUP BY level ORDER BY level", true},
		{"SELECT region, COUNT(*), SUM(status) FROM events, devices " +
			"WHERE events.device_id = devices.device_id GROUP BY region ORDER BY region", true},
		{"SELECT region, COUNT(*) FROM events, devices " +
			"WHERE events.device_id = devices.device_id AND level = 'error' " +
			"GROUP BY region ORDER BY region", true},
		{"SELECT event_id, region FROM events, devices " +
			"WHERE events.device_id = devices.device_id AND status = 503 " +
			"ORDER BY event_id LIMIT 100", false},
	}
	for _, tc := range queries {
		stmt := sql.MustParse(tc.q)
		for _, par := range []int{2, 8} {
			pp, err := exec.Compile(snP, stmt, par)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			if tc.wantWise {
				if pp.OperatorCounts()["partition-wise"] == 0 {
					t.Errorf("par=%d: no partition-wise operator in plan for: %s\n%s", par, tc.q, pp.Explain())
				}
				ex := pp.Explain()
				if !strings.Contains(ex, "[partition-wise]") || !strings.Contains(ex, fmt.Sprintf("partitions=%d", parts)) {
					t.Errorf("par=%d: explain missing partition annotations for: %s\n%s", par, tc.q, ex)
				}
			}
			pf, err := exec.Compile(snF, stmt, par)
			if err != nil {
				t.Fatal(err)
			}
			var c store.PartCounters
			got, err := exec.Run(context.Background(), snP, pp, exec.RunOpts{PartC: &c})
			if err != nil {
				t.Fatalf("%s (par=%d): %v", tc.q, par, err)
			}
			want, err := exec.Run(context.Background(), snF, pf, exec.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rowsIdentical(got, want); err != nil {
				t.Errorf("par=%d: partitioned vs flat: %v\nsql: %s", par, err, tc.q)
			}
			if tc.wantWise && c.Scanned.Load() == 0 {
				t.Errorf("par=%d: partition counter never incremented for: %s", par, tc.q)
			}
		}
	}
}

// TestPartitionPruneZeroSegIO pins the pruning contract on a range-
// partitioned, spill-enabled log: a predicate selecting one partition's
// ts range must prune every other partition from resident statistics
// alone — after evicting all segments to disk, the counted run may
// fault back at most the kept partition's segment bytes.
func TestPartitionPruneZeroSegIO(t *testing.T) {
	const n, parts = 16_384, 8
	db := dataset.Telemetry(n)
	span := int64(n / 8) // ts advances one tick every 8 rows
	var bounds []store.Value
	for i := 1; i < parts; i++ {
		bounds = append(bounds, store.Int(1_700_000_000+int64(i)*span/parts))
	}
	if err := db.PartitionTable("events", store.RangePartition("ts", bounds)); err != nil {
		t.Fatal(err)
	}
	db.Table("events").SetSegmentRows(512)
	if err := db.EnableSpill(t.TempDir(), 64<<20); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	tab := sn.Table("events")
	_ = tab.Segments() // build + adopt: every sealed segment spills

	stmt := sql.MustParse(fmt.Sprintf(
		"SELECT COUNT(*), MIN(status), MAX(status) FROM events WHERE ts < %d", 1_700_000_000+span/parts))
	p, err := exec.Compile(sn, stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline off the rows: no segment, so no fault can reach it.
	want, err := exec.Run(context.Background(), sn, p, exec.RunOpts{NoVec: true})
	if err != nil {
		t.Fatal(err)
	}

	db.SegCache().EvictAll()
	before := db.SegCache().Stats()
	var partc store.PartCounters
	got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Par: 1, PartC: &partc})
	if err != nil {
		t.Fatal(err)
	}
	after := db.SegCache().Stats()

	if err := rowsIdentical(got, want); err != nil {
		t.Errorf("pruned run vs row-executor baseline: %v", err)
	}
	if pruned := partc.Pruned.Load(); pruned != parts-1 {
		t.Errorf("pruned %d partitions, want %d (scanned %d)", pruned, parts-1, partc.Scanned.Load())
	}
	kept := int64(tab.Part(0).Segments().Bytes())
	faulted := after.FaultBytes - before.FaultBytes
	if faulted == 0 {
		t.Fatal("probe faulted nothing — segments never reached the spill cache, the I/O bound below is vacuous")
	}
	if faulted > kept {
		t.Errorf("faulted %d bytes but the kept partition holds only %d — pruned partitions did segment I/O",
			faulted, kept)
	}
}

// BenchmarkPartitionWiseJoin is the allocation guard for the
// partition-wise join path: per-partition build+probe over the
// co-partitioned telemetry FK join at 8 partitions and 4 workers.
func BenchmarkPartitionWiseJoin(b *testing.B) {
	dbPart, _ := telemetryPair(20_000, 8)
	sn := dbPart.Snapshot()
	stmt := sql.MustParse("SELECT level, COUNT(*) FROM events, devices " +
		"WHERE events.device_id = devices.device_id GROUP BY level ORDER BY level")
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		b.Fatal(err)
	}
	if p.OperatorCounts()["partition-wise"] == 0 {
		b.Fatal("plan has no partition-wise operator")
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
