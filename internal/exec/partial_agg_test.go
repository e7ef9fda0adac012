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
// exchange below it, and one that runs serially: a DISTINCT aggregate
// gets no exchange.
const (
	perWorker  = "[partial ×worker]"
	notPartial = ""
)

// checkPartial runs q at par 1, 2, 4 and 8 through differential, and
// requires each parallel plan to carry exactly the wanted mark: one
// exchange under the marked aggregate, or none at all.
func checkPartial(t *testing.T, sn *store.Snapshot, q, wantMark string) {
	t.Helper()
	exchanges := 0
	if wantMark != notPartial {
		exchanges = 1
	}
	for _, r := range differential(t, sn, q, diffOpts{pars: []int{1, 2, 4, 8}})[1:] {
		explain := r.plan.Explain()
		if r.plan.OperatorCounts()["exchange"] != exchanges {
			t.Fatalf("par=%d: want a plan over %d exchanges:\n%s\nsql: %s", r.par, exchanges, explain, q)
		}
		if got := strings.Count(explain, "[partial"); got != strings.Count(wantMark, "[partial") || !strings.Contains(explain, wantMark) {
			t.Errorf("par=%d: want mark %q:\n%s\nsql: %s", r.par, wantMark, explain, q)
		}
	}
}

// partialDB is a random table for the per-worker fold: NULLs in every
// key and argument column, a key whose values first appear in the last
// eighth of the rows (groups only late morsels see), and half-batch
// segments so every morsel is many batches; beside it u, three rows to
// join it with.
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
// the morsels each worker claims into that worker's group table and
// merges the tables into first-seen order, and must be
// indistinguishable from the serial fold — group order,
// empty-input global group, NULL keys and arguments included. COUNT,
// MIN, MAX and FIRST merge their states; SUM and AVG merge exact sums,
// 128-bit over INT and a superaccumulator over FLOAT, so a float answer
// is bit for bit the serial one. Only a DISTINCT aggregate, whose
// partials would count a value once per worker, must not take the path:
// it gets no exchange and runs serially.
func TestPartialAggregateEqualsSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db, n := partialDB(seed)
		sn := db.Snapshot()
		for _, c := range []struct {
			q, mark string
		}{
			{"SELECT COUNT(*), COUNT(v), MIN(v), MAX(v), MIN(s), MAX(s), MIN(b), MAX(b) FROM t WHERE v > -100", perWorker},
			{"SELECT k1, COUNT(*), MIN(v), MAX(s) FROM t GROUP BY k1", perWorker},
			{"SELECT k1, k2, COUNT(f), MAX(b) FROM t WHERE f > 0.0 GROUP BY k1, k2", perWorker},
			// Groups the first morsels never see; morsels the filter empties.
			{"SELECT late, COUNT(*), MIN(seq) FROM t GROUP BY late", perWorker},
			{fmt.Sprintf("SELECT k2, COUNT(*), MAX(v) FROM t WHERE seq >= %d GROUP BY k2", n-n/3), perWorker},
			// A filter that keeps nothing: the global group still answers.
			{"SELECT COUNT(*), COUNT(v), MIN(v), MAX(s) FROM t WHERE seq < 0", perWorker},
			{"SELECT k1, COUNT(*) FROM t WHERE seq < 0 GROUP BY k1", perWorker},
			// HAVING and ORDER BY run once, over the merged groups.
			{"SELECT k2, COUNT(*) FROM t GROUP BY k2 HAVING COUNT(*) > 300", perWorker},
			{"SELECT k1, COUNT(*) AS c, MIN(s) FROM t GROUP BY k1 ORDER BY c DESC, k1", perWorker},
			// Exact sums and float extrema merge too.
			{"SELECT k1, SUM(v) FROM t GROUP BY k1", perWorker},
			{"SELECT AVG(f) FROM t WHERE v > 0", perWorker},
			{"SELECT k1, COUNT(*), AVG(v) FROM t GROUP BY k1", perWorker},
			{"SELECT k2, MIN(f), MAX(f), COUNT(*) FROM t GROUP BY k2", perWorker},
			{"SELECT late, SUM(f), AVG(f), SUM(v) FROM t GROUP BY late", perWorker},
			// A bare column is its group's first row (FIRST), here behind
			// morsels the filter empties.
			{fmt.Sprintf("SELECT s, COUNT(*), SUM(f) FROM t WHERE seq >= %d", n-n/8), perWorker},
			{"SELECT k1, s, MIN(f) FROM t GROUP BY k1", perWorker},
			// A DISTINCT aggregate runs serially.
			{"SELECT k1, COUNT(DISTINCT v) FROM t GROUP BY k1", notPartial},
			{"SELECT SUM(DISTINCT f), COUNT(*) FROM t", notPartial},
		} {
			checkPartial(t, sn, c.q, c.mark)
		}
		// A subquery filter and a join under the exchange fold per worker
		// too: the subquery binds once as each worker's pipeline opens,
		// and the join probes u's build in every worker.
		for _, q := range []string{
			"SELECT COUNT(*), MIN(seq) FROM t WHERE v > (SELECT AVG(v) FROM t)",
			"SELECT k1, COUNT(*), MAX(s) FROM t WHERE v > (SELECT AVG(v) FROM t) GROUP BY k1",
			"SELECT COUNT(*), COUNT(v), MIN(v), MAX(w) FROM t, u WHERE t.v = u.w",
			"SELECT k1, COUNT(*), MIN(w) FROM t, u WHERE t.v = u.w GROUP BY k1",
		} {
			checkPartial(t, sn, q, perWorker)
		}
	}

	// Every segment encoding as key and argument, and a join under the
	// exchange: the fold runs above the probe in each worker.
	sn := retainDB(t, 32*retainSegRows+37).Snapshot()
	for _, q := range []string{
		"SELECT status, narrow, COUNT(*), COUNT(mid), MIN(ts), MAX(device_id), MIN(service) FROM events WHERE wide > 0 GROUP BY status, narrow",
		"SELECT ts, COUNT(wide), MAX(wide) FROM events WHERE seq >= 0 GROUP BY ts",
		"SELECT service, COUNT(latency_ms), MIN(mid), MAX(status) FROM events WHERE latency_ms > 120.5 GROUP BY service",
		"SELECT d.region, COUNT(*), MIN(e.mid) FROM events e, devices d WHERE e.device_id = d.device_id AND e.status > 250 GROUP BY d.region",
	} {
		checkPartial(t, sn, q, perWorker)
	}

	// FK joins over the telemetry pair: the fold runs per worker above
	// the probe on the same terms.
	sn = dataset.Telemetry(20_000).Snapshot()
	const fk = "FROM events, devices WHERE events.device_id = devices.device_id"
	checkPartial(t, sn, "SELECT level, COUNT(*), MIN(ts), MAX(service) "+fk+" GROUP BY level", perWorker)
	checkPartial(t, sn, "SELECT region, COUNT(latency_ms) "+fk+" AND level = 'error' GROUP BY region", perWorker)
	checkPartial(t, sn, "SELECT COUNT(*) "+fk+" AND status > 9000", perWorker)
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

	checkPartial(t, sn, "SELECT g, MIN(f), MAX(f) FROM x GROUP BY g", perWorker)
	checkPartial(t, sn, "SELECT MIN(f), MAX(f), COUNT(*) FROM x", perWorker)
	checkPartial(t, sn, "SELECT g, MIN(i), MAX(i), MIN(s), MAX(s), MIN(b), MAX(b), COUNT(f) FROM x GROUP BY g", perWorker)
	checkPartial(t, sn, "SELECT MIN(i), MAX(i), MIN(s), MAX(b) FROM x WHERE f > 0.0", perWorker)

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

// TestWorkerFoldKeepsSerialGroupOrder: each exchange worker folds every
// morsel it claims into one group table, and the merge must rebuild the
// serial fold's group order, FIRST values and float extrema whichever
// worker claimed which morsel — the scheduler's call, so one run per
// degree can pass by luck. Each query runs 50 times at two, four and
// eight workers, and every run must equal the one-worker run row for
// row: groups only the last morsels see (late), a key first seen in
// every morsel (s, 3,000 values over the table), a bare column
// (FIRST) beside a float MIN, the same over the global group, every
// worker's partial of which holds a FIRST, region_join's fold above a
// join probe, and float extrema a merge in creation order would get
// wrong: a NaN behind NULLs that opens a group's values in a later
// morsel than a number of another worker's, and a 0.0 whose -0.0 tie
// comes later.
func TestWorkerFoldKeepsSerialGroupOrder(t *testing.T) {
	db, _ := partialDB(1)
	part := db.Snapshot()
	tel := dataset.Telemetry(1 << 15).Snapshot()
	var regionJoin string
	for _, tc := range scanTemplatesAt(1 << 15) {
		if tc.name == "region_join" {
			regionJoin = tc.sql
		}
	}

	s := schema.MustNew("lead", []*schema.Table{{
		Name:    "x",
		Columns: []schema.Column{{Name: "g", Type: schema.Int}, {Name: "f", Type: schema.Float}},
	}}, nil)
	leadDB := store.NewDB(s)
	leadDB.Table("x").SetSegmentRows(1024)
	const n = 1 << 15
	m := n / 8 // a morsel at two workers
	floats := map[int]float64{
		4*m + 10: math.NaN(), 5*m + 10: 5, 7*m + 10: -1, // g=0: the NaN comes first
		2*m + 11: 0, 7*m + 11: math.Copysign(0, -1), // g=1: 0.0 comes first
	}
	rows := make([]store.Row, n)
	for r := range rows {
		f := store.Null()
		if v, ok := floats[r]; ok {
			f = store.Float(v)
		}
		rows[r] = store.Row{store.Int(int64(r % 2)), f}
	}
	leadDB.MustBulkInsert("x", rows)
	lead := leadDB.Snapshot()

	for _, c := range []struct {
		sn *store.Snapshot
		q  string
	}{
		{part, "SELECT late, COUNT(*), MIN(seq) FROM t GROUP BY late"},
		{part, "SELECT s, COUNT(*), MIN(v), k1 FROM t GROUP BY s"},
		{part, "SELECT k1, s, MIN(f) FROM t GROUP BY k1"},
		{part, "SELECT s, MIN(f) FROM t WHERE seq >= 3613"},
		{tel, regionJoin},
		{lead, "SELECT g, MIN(f), MAX(f), COUNT(f) FROM x GROUP BY g"},
	} {
		serial, err := compileRun(c.sn, sql.MustParse(c.q), 1, exec.RunOpts{})
		if err != nil {
			t.Fatalf("%v\nsql: %s", err, c.q)
		}
		for _, par := range []int{2, 4, 8} {
			p, err := exec.Compile(c.sn, sql.MustParse(c.q), par)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(p.Explain(), perWorker) {
				t.Fatalf("par=%d: the aggregate does not fold per worker:\n%s", par, p.Explain())
			}
			for run := range 50 {
				got, err := exec.Run(context.Background(), c.sn, p, exec.RunOpts{})
				if err != nil {
					t.Fatalf("par=%d run %d: %v\nsql: %s", par, run, err, c.q)
				}
				if err := sameResult(got, serial, true); err != nil {
					t.Fatalf("par=%d run %d vs par=1: %v\nsql: %s", par, run, err, c.q)
				}
			}
		}
	}
}

// TestScanBytesFollowGroups: what an ask_scan question allocates
// inside the executor is its workers' pipelines and group tables, not
// its rows. All six shapes fold per worker — the two AVG shapes' exact
// sums merge, and the join's probe writes its build columns into
// scratch — so each, run over 2^15 and over 2^17 events at two workers,
// may differ by a tenth in bytes per run for four times the rows — plus
// 16 KiB of slack. A run's bytes depend on whether one worker or two
// folded rows, the scheduler's call, so the two sizes are compared
// over runs in which the same number did (scanBytesPerRun). A
// selection copy alone would be 4 B a kept row, some 200 KiB more over
// the larger table.
func TestScanBytesFollowGroups(t *testing.T) {
	perWorkerOnly := func(name, _ string, p *plan.Plan) bool {
		if !strings.Contains(p.Explain(), perWorker) {
			t.Fatalf("%s does not fold per worker:\n%s", name, p.Explain())
		}
		return true
	}
	got := scanBytesPerRun(t, 1<<15, 1<<17, perWorkerOnly)
	if len(got) != 6 {
		t.Fatalf("want the six ask_scan shapes, got %v", got)
	}
	for name, b := range got {
		if s, l := b[0], b[1]; l > 1.10*s+16<<10 {
			t.Errorf("%s: %.0f B/run over 2^15 events, %.0f over 2^17: bytes follow the rows scanned", name, s, l)
		} else {
			t.Logf("%s: %.0f B/run over 2^15 events, %.0f over 2^17", name, s, l)
		}
	}
}

// scanBytesPerRun binds the ask_scan templates over telemetry logs of
// small and of large rows, at two workers, and returns for each
// template that use accepts what one run allocates over each log. How
// many workers fold rows (plan.FoldingWorkers) is the scheduler's call
// and moves a run's bytes, so the two logs are run in turn, under the
// same load, and compared at one folding count: the most of ten runs a
// log at the first count both logs reach ten times, two workers before
// one; failing that within a hundred turns, the count both reached
// most often. Two collections before each run empty the executor's
// scratch pool, so every run borrows its scratch and join build
// afresh, as a question after an idle spell does: the figure does not
// hang on which P's private slot the last run handed its scratch back
// to, nor on the race detector dropping a pooled scratch at random.
func scanBytesPerRun(t *testing.T, small, large int, use func(name, sql string, p *plan.Plan) bool) map[string][2]float64 {
	t.Helper()
	sizes := [2]int{small, large}
	var sns [2]*store.Snapshot
	var tmpls [2][]struct{ name, sql string }
	for s, rows := range sizes {
		sns[s], tmpls[s] = dataset.Telemetry(rows).Snapshot(), scanTemplatesAt(rows)
	}
	out := map[string][2]float64{}
	for i, tc := range tmpls[0] {
		var runs [2]func() int // one run; it returns how many workers folded rows
		accepted := true
		for s := range sizes {
			tc := tmpls[s][i]
			p, params := bindScanTemplate(t, sns[s], tc.sql)
			if !use(tc.name, tc.sql, p) {
				accepted = false
				break
			}
			sn := sns[s]
			runs[s] = func() int {
				folding := plan.FoldingWorkers.Load()
				if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Params: params}); err != nil {
					t.Fatal(err)
				}
				return int(plan.FoldingWorkers.Load() - folding)
			}
			runs[s]() // builds the segment layout
		}
		if !accepted {
			continue
		}
		const enough, turns = 10, 100
		var most, seen [2][3]uint64 // by log and folding count
		var before, after runtime.MemStats
		at := -1
		for turn := 0; at < 0 && turn < turns; turn++ {
			for s := range sizes {
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				k := runs[s]()
				runtime.ReadMemStats(&after)
				if k < 1 || k > 2 {
					t.Fatalf("%s over %d events: %d workers folded rows, want 1 or 2", tc.name, sizes[s], k)
				}
				seen[s][k]++
				most[s][k] = max(most[s][k], after.TotalAlloc-before.TotalAlloc)
			}
			for _, k := range []int{2, 1} {
				if at < 0 && seen[0][k] >= enough && seen[1][k] >= enough {
					at = k
				}
			}
		}
		if at < 0 {
			at = 2
			if min(seen[0][1], seen[1][1]) > min(seen[0][2], seen[1][2]) {
				at = 1
			}
			if min(seen[0][at], seen[1][at]) == 0 {
				t.Fatalf("%s: the two logs never had the same number of workers fold rows in %d turns: %v", tc.name, turns, seen)
			}
		}
		out[tc.name] = [2]float64{float64(most[0][at]), float64(most[1][at])}
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
	got := scanBytesPerRun(t, 1<<17, 1<<19, join)["region_join"]
	small, large := got[0], got[1]
	perRow := (large - small) / float64((1<<19-1<<17)/8)
	if perRow > 2 {
		t.Errorf("region_join: %.0f B/run over 2^17 events, %.0f over 2^19: %.1f B per extra kept row, want <= 2",
			small, large, perRow)
	} else {
		t.Logf("region_join: %.0f B/run over 2^17 events, %.0f over 2^19: %.1f B per extra kept row", small, large, perRow)
	}
}
