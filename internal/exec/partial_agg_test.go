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
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// How Explain shows an aggregate that folds inside the workers of the
// exchange below it.
const (
	perMorsel  = "[partial ×morsel]"
	notPartial = ""
)

// checkPartial runs q at par 1, 2, 4 and 8 through differential, and
// requires each parallel plan to have one exchange under an aggregate
// carrying exactly the wanted mark.
func checkPartial(t *testing.T, sn *store.Snapshot, q, wantMark string) {
	t.Helper()
	for _, r := range differential(t, sn, q, diffOpts{pars: []int{1, 2, 4, 8}})[1:] {
		explain := r.plan.Explain()
		if r.plan.OperatorCounts()["exchange"] != 1 {
			t.Fatalf("par=%d: want a plan over one exchange:\n%s\nsql: %s", r.par, explain, q)
		}
		if got := strings.Count(explain, "[partial"); got != strings.Count(wantMark, "[partial") || !strings.Contains(explain, wantMark) {
			t.Errorf("par=%d: want mark %q:\n%s\nsql: %s", r.par, wantMark, explain, q)
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
// §2.4's "fold where the rows are": an aggregate above an exchange folds
// each morsel into its own group table and merges them in morsel order,
// and must be indistinguishable from the serial fold — group order,
// empty-input global group, NULL keys and arguments included. COUNT,
// MIN, MAX and FIRST merge their states; SUM and AVG merge exact sums,
// 128-bit over INT and a superaccumulator over FLOAT, so a float answer
// is bit for bit the serial one. Only a DISTINCT aggregate, whose
// partials would count a value once per morsel, must not take the path.
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
			// Exact sums and float extrema merge too.
			{"SELECT k1, SUM(v) FROM t GROUP BY k1", perMorsel},
			{"SELECT AVG(f) FROM t WHERE v > 0", perMorsel},
			{"SELECT k1, COUNT(*), AVG(v) FROM t GROUP BY k1", perMorsel},
			{"SELECT k2, MIN(f), MAX(f), COUNT(*) FROM t GROUP BY k2", perMorsel},
			{"SELECT late, SUM(f), AVG(f), SUM(v) FROM t GROUP BY late", perMorsel},
			// A bare column is its group's first row (FIRST), here behind
			// morsels the filter empties.
			{fmt.Sprintf("SELECT s, COUNT(*), SUM(f) FROM t WHERE seq >= %d", n-n/8), perMorsel},
			{"SELECT k1, s, MIN(f) FROM t GROUP BY k1", perMorsel},
			// A DISTINCT aggregate stays above the merge.
			{"SELECT k1, COUNT(DISTINCT v) FROM t GROUP BY k1", notPartial},
			{"SELECT SUM(DISTINCT f), COUNT(*) FROM t", notPartial},
		} {
			checkPartial(t, sn, c.q, c.mark)
		}
		// A subquery filter and a cross join under the exchange fold per
		// morsel too: the subquery binds once as each worker's pipeline
		// opens, and the cross join runs in every worker.
		for _, q := range []string{
			"SELECT COUNT(*), MIN(seq) FROM t WHERE v > (SELECT AVG(v) FROM t)",
			"SELECT k1, COUNT(*), MAX(s) FROM t WHERE v > (SELECT AVG(v) FROM t) GROUP BY k1",
			"SELECT COUNT(*), COUNT(v), MIN(v), MAX(w) FROM t, u",
			"SELECT k1, COUNT(*), MIN(w) FROM t, u WHERE v > w GROUP BY k1",
		} {
			checkPartial(t, sn, q, perMorsel)
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

	// FK joins over the telemetry pair: the fold runs per morsel above
	// the probe on the same terms.
	sn = dataset.Telemetry(20_000).Snapshot()
	const fk = "FROM events, devices WHERE events.device_id = devices.device_id"
	checkPartial(t, sn, "SELECT level, COUNT(*), MIN(ts), MAX(service) "+fk+" GROUP BY level", perMorsel)
	checkPartial(t, sn, "SELECT region, COUNT(latency_ms) "+fk+" AND level = 'error' GROUP BY region", perMorsel)
	checkPartial(t, sn, "SELECT COUNT(*) "+fk+" AND status > 9000", perMorsel)
}

// TestPartialAggregateExtrema pins the merge's exactness at the values
// where it could slip. A float MIN/MAX keeps a leading NaN (store.Compare
// finds NaN neither below nor above a number), so a partial carries
// whether its first non-NULL value was NaN beside its best number: the
// table puts NaN first in the input, first in a later morsel, mid-morsel
// and last, and ±0.0 ties in both orders. Int extrema beyond 2^53
// (TestVecAggBigIntExact's case, the two values now in different
// morsels), text and bool extrema merge too.
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

	checkPartial(t, sn, "SELECT g, MIN(f), MAX(f) FROM x GROUP BY g", perMorsel)
	checkPartial(t, sn, "SELECT MIN(f), MAX(f), COUNT(*) FROM x", perMorsel)
	checkPartial(t, sn, "SELECT g, MIN(i), MAX(i), MIN(s), MAX(s), MIN(b), MAX(b), COUNT(f) FROM x GROUP BY g", perMorsel)
	checkPartial(t, sn, "SELECT MIN(i), MAX(i), MIN(s), MAX(b) FROM x WHERE f > 0.0", perMorsel)

	// The fixture does what it says: NaN wins g=0, the first zero g=1 and
	// g=2, the number behind a NaN g=3, and the int extrema are exact.
	got, err := compileRun(sn, sql.MustParse("SELECT g, MIN(f), MIN(i), MAX(i) FROM x GROUP BY g ORDER BY g"), 4, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := &exec.Result{Cols: got.Cols, Rows: []store.Row{
		{store.Int(0), store.Float(nan), store.Int(0), store.Int(96)},
		{store.Int(1), store.Float(negZero), store.Int(0), store.Int(96)},
		{store.Int(2), store.Float(0), store.Int(-big - 1), store.Int(big + 1)},
		{store.Int(3), store.Float(-5), store.Int(0), store.Int(96)},
	}}
	if err := sameResult(got, want, true); err != nil {
		t.Errorf("MIN(f), MIN(i), MAX(i) by g: %v", err)
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
	skipAVG := func(name, sql string, p *plan.Plan) bool {
		if strings.Contains(sql, "AVG") {
			return false
		}
		if !strings.Contains(p.Explain(), perMorsel) {
			t.Fatalf("%s does not fold per morsel:\n%s", name, p.Explain())
		}
		return true
	}
	small, large := scanBytesPerRun(t, 1<<15, skipAVG), scanBytesPerRun(t, 1<<17, skipAVG)
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

// scanBytesPerRun binds the ask_scan templates over a telemetry log of
// the given length, at two workers, and returns what one run of each
// template that use accepts allocates, averaged over ten runs.
func scanBytesPerRun(t *testing.T, rows int, use func(name, sql string, p *plan.Plan) bool) map[string]float64 {
	t.Helper()
	sn := dataset.Telemetry(rows).Snapshot()
	out := map[string]float64{}
	for _, tc := range scanTemplatesAt(rows) {
		p, params := bindScanTemplate(t, sn, tc.sql)
		if !use(tc.name, tc.sql, p) {
			continue
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

// TestJoinBytesFollowKeptRows: what the join question allocates does
// not grow with the rows it keeps. region_join keeps an eighth of the
// events and folds them where they are, so every row the probe emits
// dies at the next pull, and the build columns it writes at the probe
// rows go into its scratch; from 2^17 to 2^19 events its bytes per run
// may grow by 2 B per extra kept row — scheduling noise, which worker's
// scratch grows. Writing devices.region at every probe row, as the
// probe did while its output was kept to the last morsel, costs 16 B;
// gathering every matched column about 54 B.
func TestJoinBytesFollowKeptRows(t *testing.T) {
	join := func(name, _ string, _ *plan.Plan) bool { return name == "region_join" }
	small := scanBytesPerRun(t, 1<<17, join)["region_join"]
	large := scanBytesPerRun(t, 1<<19, join)["region_join"]
	perRow := (large - small) / float64((1<<19-1<<17)/8)
	if perRow > 2 {
		t.Errorf("region_join: %.0f B/run over 2^17 events, %.0f over 2^19: %.1f B per extra kept row, want <= 2",
			small, large, perRow)
	} else {
		t.Logf("region_join: %.0f B/run over 2^17 events, %.0f over 2^19: %.1f B per extra kept row", small, large, perRow)
	}
}
