package exec_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// How Explain shows an aggregate that folds inside the workers of the
// exchange, or the partition-wise operator, below it.
const (
	perMorsel    = "[partial ×morsel]"
	perPartition = "[partial ×partition]"
	notPartial   = ""
)

// rowsBitIdentical is rowsIdentical without Key's folding: kinds must
// match and floats compare by bit pattern, so -0.0 is not +0.0 and a
// NaN is only the same NaN.
func rowsBitIdentical(a, b *exec.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			x, y := a.Rows[i][c], b.Rows[i][c]
			same := x.Kind() == y.Kind() && x.Key() == y.Key()
			if same && x.Kind() == store.KindFloat {
				same = floatBits(x) == floatBits(y)
			}
			if !same {
				return fmt.Errorf("row %d differs: %s vs %s", i, a.Rows[i], b.Rows[i])
			}
		}
	}
	return nil
}

func floatBits(v store.Value) uint64 {
	f, _ := v.AsFloat()
	return math.Float64bits(f)
}

// checkPartial runs q at par 2, 4 and 8 and requires every run to equal
// the par = 1 run of the same statement row for row and bit for bit,
// the reference executor as a bag, and the plan to be vectorized end to
// end, with one fan-out operator under an aggregate carrying exactly the
// wanted mark.
func checkPartial(t *testing.T, sn *store.Snapshot, q, wantMark string) {
	t.Helper()
	checkPartialPlan(t, sn, q, wantMark, true)
}

// checkPartialPlan is checkPartial for a plan whose fan-out subtree is
// (allVec) or is not all vectorized.
func checkPartialPlan(t *testing.T, sn *store.Snapshot, q, wantMark string, allVec bool) {
	t.Helper()
	stmt := sql.MustParse(q)
	serial, err := compileRun(sn, stmt, 1, exec.RunOpts{})
	if err != nil {
		t.Fatalf("serial: %v\nsql: %s", err, q)
	}
	ref, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		t.Fatalf("reference: %v\nsql: %s", err, q)
	}
	for _, par := range []int{2, 4, 8} {
		p, err := exec.Compile(sn, stmt, par)
		if err != nil {
			t.Fatalf("compile: %v\nsql: %s", err, q)
		}
		explain := p.Explain()
		ops := p.OperatorCounts()
		if ops["exchange"]+ops["partition-wise"] != 1 || (wantMark == perPartition) != (ops["partition-wise"] == 1) || p.Vec != allVec {
			t.Fatalf("par=%d: want a plan (all vectorized: %v) over one fan-out operator:\n%s\nsql: %s", par, allVec, explain, q)
		}
		if got := strings.Count(explain, "[partial"); got != strings.Count(wantMark, "[partial") || !strings.Contains(explain, wantMark) {
			t.Errorf("par=%d: want mark %q:\n%s\nsql: %s", par, wantMark, explain, q)
		}
		got, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
		if err != nil {
			t.Fatalf("par=%d: %v\nsql: %s", par, err, q)
		}
		if err := rowsBitIdentical(got, serial); err != nil {
			t.Errorf("par=%d vs par=1: %v\nsql: %s", par, err, q)
		}
		if err := sameBag(got, ref); err != nil {
			t.Errorf("par=%d vs reference: %v\nsql: %s", par, err, q)
		}
	}
}

// partialDB is a random table for the per-morsel fold: NULLs in every
// key and argument column, a key whose values first appear in the last
// eighth of the rows (groups only late morsels see), and half-batch
// segments so every morsel is many batches; beside it u, three rows to
// cross it with.
func partialDB(seed int64) (*store.DB, int) {
	s := schema.MustNew("partial", []*schema.Table{{
		Name: "t",
		Columns: []schema.Column{
			{Name: "seq", Type: schema.Int},
			{Name: "k1", Type: schema.Text},
			{Name: "k2", Type: schema.Int},
			{Name: "late", Type: schema.Text},
			{Name: "v", Type: schema.Int},
			{Name: "f", Type: schema.Float},
			{Name: "s", Type: schema.Text},
			{Name: "b", Type: schema.Bool},
		},
	}, {
		Name:    "u",
		Columns: []schema.Column{{Name: "w", Type: schema.Int}},
	}}, nil)
	db := store.NewDB(s)
	db.Table("t").SetSegmentRows(retainSegRows)
	db.MustBulkInsert("u", []store.Row{{store.Int(-200)}, {store.Null()}, {store.Int(300)}})
	r := rand.New(rand.NewSource(seed))
	n := 8*retainSegRows + r.Intn(retainSegRows)
	maybe := func(v store.Value) store.Value {
		if r.Intn(9) == 0 {
			return store.Null()
		}
		return v
	}
	rows := make([]store.Row, n)
	for i := range rows {
		late := "early"
		if i >= n-n/8 {
			late = fmt.Sprintf("late-%d", r.Intn(5))
		}
		rows[i] = store.Row{
			store.Int(int64(i)),
			maybe(store.Text(fmt.Sprintf("k-%d", r.Intn(7)))),
			maybe(store.Int(int64(i / 700))),
			store.Text(late),
			maybe(store.Int(r.Int63n(1000) - 500)),
			maybe(store.Float(r.NormFloat64() * 100)),
			maybe(store.Text(fmt.Sprintf("s%04d", r.Intn(3000)))),
			maybe(store.Bool(r.Intn(2) == 0)),
		}
	}
	db.MustBulkInsert("t", rows)
	return db, n
}

// TestPartialAggregateEqualsSerial is the differential for DESIGN
// §2.4's "fold where the rows are": an aggregate of COUNTs and
// non-float MIN/MAX above an exchange folds each morsel into its own
// group table and merges them in morsel order, and must be
// indistinguishable from the serial fold — group order, empty-input
// global group, NULL keys and arguments included — while SUM, AVG, a
// float MIN/MAX and anything mixed with them must not take that path.
func TestPartialAggregateEqualsSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db, n := partialDB(seed)
		sn := db.Snapshot()
		for _, c := range []struct {
			q, mark string
		}{
			{"SELECT COUNT(*), COUNT(v), MIN(v), MAX(v), MIN(s), MAX(s), MIN(b), MAX(b) FROM t WHERE v > -100", perMorsel},
			{"SELECT k1, COUNT(*), MIN(v), MAX(s) FROM t GROUP BY k1", perMorsel},
			{"SELECT k1, k2, COUNT(f), MAX(b) FROM t WHERE f > 0.0 GROUP BY k1, k2", perMorsel},
			// Groups the first morsels never see; morsels the filter empties.
			{"SELECT late, COUNT(*), MIN(seq) FROM t GROUP BY late", perMorsel},
			{fmt.Sprintf("SELECT k2, COUNT(*), MAX(v) FROM t WHERE seq >= %d GROUP BY k2", n-n/3), perMorsel},
			// A filter that keeps nothing: the global group still answers.
			{"SELECT COUNT(*), COUNT(v), MIN(v), MAX(s) FROM t WHERE seq < 0", perMorsel},
			{"SELECT k1, COUNT(*) FROM t WHERE seq < 0 GROUP BY k1", perMorsel},
			// HAVING and ORDER BY run once, over the merged groups.
			{"SELECT k2, COUNT(*) FROM t GROUP BY k2 HAVING COUNT(*) > 300", perMorsel},
			{"SELECT k1, COUNT(*) AS c, MIN(s) FROM t GROUP BY k1 ORDER BY c DESC, k1", perMorsel},
			// Float accumulation and float extrema stay above the merge.
			{"SELECT k1, SUM(v) FROM t GROUP BY k1", notPartial},
			{"SELECT AVG(f) FROM t WHERE v > 0", notPartial},
			{"SELECT k1, COUNT(*), AVG(v) FROM t GROUP BY k1", notPartial},
			{"SELECT k2, MIN(f), MAX(f), COUNT(*) FROM t GROUP BY k2", notPartial},
		} {
			checkPartial(t, sn, c.q, c.mark)
		}
		// What only the row iterator runs — a subquery filter, a cross
		// join — still folds per morsel: each worker adapts its slot's rows
		// into batches.
		for _, q := range []string{
			"SELECT COUNT(*), MIN(seq) FROM t WHERE v > (SELECT AVG(v) FROM t)",
			"SELECT k1, COUNT(*), MAX(s) FROM t WHERE v > (SELECT AVG(v) FROM t) GROUP BY k1",
			"SELECT COUNT(*), COUNT(v), MIN(v), MAX(w) FROM t, u",
			"SELECT k1, COUNT(*), MIN(w) FROM t, u WHERE v > w GROUP BY k1",
		} {
			checkPartialPlan(t, sn, q, perMorsel, false)
		}
	}

	// Every segment encoding as key and argument, and a join under the
	// exchange: the fold runs above the probe in each worker.
	sn := retainDB(t, 32*retainSegRows+37).Snapshot()
	for _, q := range []string{
		"SELECT status, d8, COUNT(*), COUNT(d32), MIN(ts), MAX(device_id), MIN(service) FROM events WHERE wide > 0 GROUP BY status, d8",
		"SELECT ts, COUNT(wide), MAX(wide) FROM events WHERE seq >= 0 GROUP BY ts",
		"SELECT service, COUNT(latency_ms), MIN(d32), MAX(status) FROM events WHERE latency_ms > 120.5 GROUP BY service",
		"SELECT d.region, COUNT(*), MIN(e.d32) FROM events e, devices d WHERE e.device_id = d.device_id AND e.status > 250 GROUP BY d.region",
	} {
		checkPartial(t, sn, q, perMorsel)
	}

	// Co-partitioned joins fan out by partition instead, and fold per
	// partition on the same terms.
	dbPart, _ := telemetryPair(20_000, 8)
	sn = dbPart.Snapshot()
	const fk = "FROM events, devices WHERE events.device_id = devices.device_id"
	checkPartial(t, sn, "SELECT level, COUNT(*), MIN(ts), MAX(service) "+fk+" GROUP BY level", perPartition)
	checkPartial(t, sn, "SELECT region, COUNT(latency_ms) "+fk+" AND level = 'error' GROUP BY region", perPartition)
	checkPartial(t, sn, "SELECT COUNT(*) "+fk+" AND status > 9000", perPartition)
}

// TestPartialAggregateExtrema pins the merge's exactness at the values
// where it could slip. Float MIN/MAX is fenced off the per-morsel path
// because a partial that opens on NaN keeps it and hides the rest of
// its morsel, where the serial fold — already holding a number — skips
// it: the table puts NaN first in the input, first in a later morsel,
// mid-morsel and last, and ±0.0 ties in both orders. Int extrema
// beyond 2^53 (TestVecAggBigIntExact's case, the two values now in
// different morsels), text and bool extrema do take it.
func TestPartialAggregateExtrema(t *testing.T) {
	s := schema.MustNew("extrema", []*schema.Table{{
		Name: "x",
		Columns: []schema.Column{
			{Name: "g", Type: schema.Int},
			{Name: "f", Type: schema.Float},
			{Name: "i", Type: schema.Int},
			{Name: "s", Type: schema.Text},
			{Name: "b", Type: schema.Bool},
		},
	}}, nil)
	db := store.NewDB(s)
	db.Table("x").SetSegmentRows(64)
	// 1024 rows are 8 morsels of 128 at two workers, 32 of 32 at eight;
	// g = row % 4.
	const n = 1024
	nan, negZero, big := math.NaN(), math.Copysign(0, -1), int64(1)<<53
	floats := map[int]float64{
		0:   nan,                     // g=0 opens on NaN: the serial answer is NaN
		131: nan, 135: -5, 139: 1000, // g=3: its extrema behind the NaN that opens their morsel
		190: nan, 255: nan, // mid-morsel, and last
		301: negZero, 305: 0, // g=1: -0.0 first
		602: 0, 898: negZero, // g=2: +0.0 first, the tie in a later morsel
	}
	ints := map[int]int64{10: big + 1, 702: big, 22: -big, 710: -big - 1} // all g=2
	rows := make([]store.Row, n)
	for r := range rows {
		f, ok := floats[r]
		if !ok {
			f = float64(1 + r%50)
		}
		i, ok := ints[r]
		if !ok {
			i = int64(r % 97)
		}
		rows[r] = store.Row{store.Int(int64(r % 4)), store.Float(f), store.Int(i),
			store.Text(fmt.Sprintf("s%03d", (r*7)%n)), store.Bool(r > 900 && r%4 != 1)}
	}
	db.MustBulkInsert("x", rows)
	sn := db.Snapshot()

	checkPartial(t, sn, "SELECT g, MIN(f), MAX(f) FROM x GROUP BY g", notPartial)
	checkPartial(t, sn, "SELECT MIN(f), MAX(f), COUNT(*) FROM x", notPartial)
	checkPartial(t, sn, "SELECT g, MIN(i), MAX(i), MIN(s), MAX(s), MIN(b), MAX(b), COUNT(f) FROM x GROUP BY g", perMorsel)
	checkPartial(t, sn, "SELECT MIN(i), MAX(i), MIN(s), MAX(b) FROM x WHERE f > 0.0", perMorsel)

	// The fixture does what it says: NaN wins g=0, the first zero g=1 and
	// g=2, the number behind a NaN g=3, and the int extrema are exact.
	got, err := compileRun(sn, sql.MustParse("SELECT g, MIN(f), MIN(i), MAX(i) FROM x GROUP BY g ORDER BY g"), 4, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	minF := func(g int) store.Value { return got.Rows[g][1] }
	if f, _ := minF(0).AsFloat(); !math.IsNaN(f) || floatBits(minF(1)) != math.Float64bits(negZero) ||
		floatBits(minF(2)) != 0 || floatBits(minF(3)) != math.Float64bits(-5) {
		t.Errorf("MIN(f) by g = %v, %v, %v, %v; want NaN, -0, +0, -5", minF(0), minF(1), minF(2), minF(3))
	}
	if lo, hi := got.Rows[2][2].Int64(), got.Rows[2][3].Int64(); lo != -big-1 || hi != big+1 {
		t.Errorf("int extrema = %d, %d; want %d, %d", lo, hi, -big-1, big+1)
	}
}

// TestScanBytesFollowGroups: what a COUNT question allocates inside
// the executor is its per-morsel pipelines and group tables, not its
// rows. The four COUNT shapes of ask_scan, run over 2^15 and over 2^17
// events at two workers, may differ by a tenth in bytes per run for
// four times the rows — plus 16 KiB, one worker's scratch: whether the
// second worker claims a morsel of the short run before the first has
// drained them all is the scheduler's call. A selection copy alone
// would be 4 B a kept row, some 200 KiB more over the larger table.
func TestScanBytesFollowGroups(t *testing.T) {
	bytesPerRun := func(rows int) map[string]float64 {
		sn := dataset.Telemetry(rows).Snapshot()
		out := map[string]float64{}
		for _, tc := range scanTemplatesAt(rows) {
			if strings.Contains(tc.sql, "AVG") {
				continue
			}
			p, params := bindScanTemplate(t, sn, tc.sql)
			if !strings.Contains(p.Explain(), perMorsel) {
				t.Fatalf("%s does not fold per morsel:\n%s", tc.name, p.Explain())
			}
			run := func() {
				if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Params: params}); err != nil {
					t.Fatal(err)
				}
			}
			run() // builds the segment layout
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			out[tc.name] = float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
		return out
	}
	small, large := bytesPerRun(1<<15), bytesPerRun(1<<17)
	if len(small) != 4 {
		t.Fatalf("want the four COUNT shapes, got %v", small)
	}
	for name, s := range small {
		if l := large[name]; l > 1.10*s+16<<10 {
			t.Errorf("%s: %.0f B/run over 2^15 events, %.0f over 2^17: bytes follow the rows scanned", name, s, l)
		} else {
			t.Logf("%s: %.0f B/run over 2^15 events, %.0f over 2^17", name, s, l)
		}
	}
}
