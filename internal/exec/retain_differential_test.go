package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/store"
)

// retainSegRows seals the fixture's events into segments of half a
// batch, so every scan, and every morsel a worker claims, yields many
// small batches, each lent only until the next.
const retainSegRows = 512

// retainDB builds a telemetry-shaped pair of tables whose events
// columns between them seal into every segment encoding — plain, FOR
// (clustered runs and scattered values alike), dictionary — with
// NULLs in each, plus one NULL-free column (seq) for predicates that
// pass or reject whole batches. The encodings are asserted, not assumed.
func retainDB(t *testing.T, n int) *store.DB {
	t.Helper()
	intCol := func(name string) schema.Column { return schema.Column{Name: name, Type: schema.Int} }
	s := schema.MustNew("retain", []*schema.Table{
		{Name: "devices", Columns: []schema.Column{
			intCol("device_id"), {Name: "region", Type: schema.Text}}},
		{Name: "events", Columns: []schema.Column{
			intCol("seq"),                        // FOR, no NULLs
			intCol("wide"),                       // plain
			intCol("ts"),                         // FOR, clustered runs
			intCol("narrow"),                     // FOR, span 200
			intCol("device_id"),                  // FOR
			intCol("mid"),                        // plain, span 2^30
			intCol("status"),                     // FOR
			{Name: "service", Type: schema.Text}, // dictionary
			{Name: "latency_ms", Type: schema.Float},
		}},
	}, nil)
	db := store.NewDB(s)
	r := rand.New(rand.NewSource(17))
	regions := []string{"us-east", "us-west", "eu-central", "ap-south"}
	devices := make([]store.Row, 300)
	for i := range devices {
		devices[i] = store.Row{store.Int(int64(i * 13)), store.Text(regions[r.Intn(len(regions))])}
	}
	db.MustBulkInsert("devices", devices)

	db.Table("events").SetSegmentRows(retainSegRows)
	statuses := []int64{200, 200, 200, 429, 500, 503}
	rows := make([]store.Row, n)
	for i := range rows {
		row := store.Row{
			store.Int(int64(i)),
			store.Int((r.Int63() - 1<<62) * 2),
			store.Int(1_700_000_000 + int64(i/16)),
			store.Int(int64(i%200) - 50),
			store.Int(int64(r.Intn(300) * 13)),
			store.Int(int64(r.Intn(1 << 30))),
			store.Int(statuses[r.Intn(len(statuses))]),
			store.Text(fmt.Sprintf("svc-%02d", i%24)),
			store.Float(float64(1+r.Intn(250)) + float64(i%10)/10),
		}
		// A different NULL schedule per column; ts rarely, so its runs
		// stay long.
		for c, every := range []int{0, 41, 211, 29, 31, 37, 47, 43, 23} {
			if every > 0 && i%every == every/2 {
				row[c] = store.Null()
			}
		}
		rows[i] = row
	}
	db.MustBulkInsert("events", rows)

	cols := db.Snapshot().Table("events").Segments().Segs[1].Cols()
	for ci, want := range []store.SegEncoding{store.SegFOR, store.SegPlain, store.SegFOR, store.SegFOR,
		store.SegFOR, store.SegPlain, store.SegFOR, store.SegDict, store.SegPlain} {
		c := cols[ci]
		if c.Enc != want {
			t.Fatalf("fixture: events column %d sealed as %v, want %v", ci, c.Enc, want)
		}
		if ci > 0 && c.Zone.Nulls == 0 {
			t.Fatalf("fixture: events column %d has no NULLs in segment 1", ci)
		}
	}
	return db
}

// TestRetainedBatchesNeverSeeScratch pins the vectorized pipeline's
// ownership rule from the outside: a batch is lent, and nobody keeps it
// — its header, null masks and selection are reused for the producer's
// next batch, like the operator scratch behind them — so whoever needs
// its rows past the next pull copies them: an aggregate folds them (in
// the aggregate's workers, or serially for a DISTINCT aggregate), the
// join build and Sort push them into builders of their own, Distinct
// into its key set, Limit hands them on and Run boxes them.
// Over a table cut into 32 segments, at one, two and four workers (16
// morsels of two segments each, for the aggregates that fold per
// worker; row-returning plans run serially at every degree), every
// query must equal the reference executor as a bag and its one-worker
// run row for row; anything still pointing at a lent part or at
// scratch would have been overwritten by the batch's successors long
// before the rows were read.
func TestRetainedBatchesNeverSeeScratch(t *testing.T) {
	const n = 32*retainSegRows + 37
	db := retainDB(t, n)
	sn := db.Snapshot()
	const ts0, span = 1_700_000_000, n / 16
	win := func(width int) string { return fmt.Sprintf("%d.0 AND %d.0", ts0+span/3, ts0+span/3+width) }
	queries := []string{
		// Project: filtered, then gathered through the selection.
		"SELECT ts, status FROM events WHERE status > 250.0 ORDER BY ts, status",
		"SELECT seq, wide, narrow, mid, service FROM events WHERE narrow BETWEEN -10 AND 60.5 AND mid > 1000",
		"SELECT seq, status, narrow, wide FROM events WHERE NOT (status = 200) ORDER BY seq DESC LIMIT 700",
		// No selection at all: encoded columns, and the scan's lent null
		// masks, leave through a bare projection.
		"SELECT ts, narrow, device_id, mid, status FROM events",
		"SELECT seq, latency_ms, service FROM events WHERE seq >= 0",
		// Float sums, with NULL arguments, fold per worker; a DISTINCT
		// aggregate, which cannot merge partials, folds serially — over
		// a join, with the build column the probe wrote into its
		// scratch.
		"SELECT service, AVG(latency_ms), COUNT(*) FROM events WHERE status > 250.0 GROUP BY service",
		"SELECT narrow, SUM(latency_ms), MIN(latency_ms) FROM events GROUP BY narrow",
		"SELECT service, AVG(DISTINCT latency_ms), COUNT(*) FROM events WHERE status > 250.0 GROUP BY service",
		"SELECT d.region, COUNT(DISTINCT e.narrow), SUM(e.latency_ms) FROM events e, devices d WHERE e.device_id = d.device_id GROUP BY d.region",
		// Consumers that hold rows across pulls: a streaming LIMIT that
		// ends mid-batch, DISTINCT's seen set.
		"SELECT seq, narrow, service FROM events WHERE narrow > 100 LIMIT 1500",
		"SELECT DISTINCT status, narrow FROM events WHERE wide > 0",
		// The six ask_scan shapes: an Aggregate with workers over a Filter.
		"SELECT COUNT(*) FROM events WHERE (events.latency_ms > 120.5)",
		"SELECT events.service, COUNT(*) FROM events WHERE events.ts BETWEEN " + win(span/4) + " GROUP BY events.service",
		"SELECT devices.region, AVG(events.latency_ms) FROM events, devices WHERE ((events.device_id = devices.device_id) AND events.ts BETWEEN " + win(span/8) + ") GROUP BY devices.region",
		"SELECT events.service, COUNT(*) FROM events WHERE (events.latency_ms > 120.5) GROUP BY events.service",
		"SELECT AVG(events.latency_ms) FROM events WHERE events.ts BETWEEN " + win(span/16),
		"SELECT COUNT(*) FROM events WHERE ((events.latency_ms > 120.5) AND (events.status > 250.0))",
		// Aggregates that read encoded columns as keys and arguments.
		"SELECT status, narrow, COUNT(*), SUM(mid), MIN(ts), MAX(device_id) FROM events WHERE wide > 0 GROUP BY status, narrow",
		// Every row passes (the selection stays absent), and none does.
		"SELECT COUNT(*), SUM(status) FROM events WHERE seq >= 0",
		"SELECT seq, ts FROM events WHERE seq >= 0.0 ORDER BY seq DESC LIMIT 5",
		"SELECT COUNT(*), MAX(ts) FROM events WHERE seq < 0",
		"SELECT seq FROM events WHERE seq < -0.5",
		// A filtered events side small enough, by estimate, to be the build
		// side: the join drains all its batches into builders before
		// hashing them.
		"SELECT f.seq, e.status, f.ts FROM events e, events f WHERE e.seq = f.seq AND e.status > 450 AND e.narrow < 100",
		"SELECT d.region, COUNT(*), MIN(e.mid) FROM events e, devices d WHERE e.device_id = d.device_id AND e.status > 250 GROUP BY d.region",
	}
	for _, q := range queries {
		differential(t, sn, q, diffOpts{pars: []int{1, 2, 4}})
	}
}

// TestDistinctAcrossBatches: DISTINCT chains the keys it has seen by
// hash across every batch of its input and hands out the rows each
// batch keeps from its scratch. Over 32 segments of half a batch, keys
// that repeat from batch to batch — one column and several, NULL keys
// among them, text in code space, and under a projection gathering a
// filter's selection — must keep exactly the reference executor's
// first occurrences, at one, two and four workers.
func TestDistinctAcrossBatches(t *testing.T) {
	const n = 32*retainSegRows + 37
	sn := retainDB(t, n).Snapshot()
	if segs := len(sn.Table("events").Segments().Segs); segs < 4 {
		t.Fatalf("fixture: %d segments, want more than three batches", segs)
	}
	for _, q := range []string{
		"SELECT DISTINCT narrow FROM events",
		"SELECT DISTINCT service FROM events",
		"SELECT DISTINCT latency_ms FROM events",
		"SELECT DISTINCT service, status FROM events",
		"SELECT DISTINCT status, narrow, service FROM events",
		// A filter's selection, gathered by the projection below DISTINCT.
		"SELECT DISTINCT narrow FROM events WHERE status > 250.0",
		"SELECT DISTINCT service, narrow FROM events WHERE latency_ms > 100.5",
		"SELECT DISTINCT status, service FROM events WHERE seq >= 100 AND mid > 1000",
		"SELECT DISTINCT narrow, status FROM events WHERE wide > 0 ORDER BY narrow, status",
		"SELECT DISTINCT service, narrow FROM events WHERE narrow > 0 LIMIT 700",
	} {
		differential(t, sn, q, diffOpts{pars: []int{1, 2, 4}, ordered: strings.Contains(q, "ORDER BY")})
	}
}

// TestReturnedRowsAreCapped: the executor boxes each output batch into
// one slab of cells, every row capped at its width, so a caller that
// appends to a row gets a new array and cannot write into the row after
// it. Over results of several batches at one, two and four workers,
// appending to every row must leave the result as it was.
func TestReturnedRowsAreCapped(t *testing.T) {
	const n = 32*retainSegRows + 37
	sn := retainDB(t, n).Snapshot()
	for _, q := range []string{
		"SELECT seq, narrow, service FROM events WHERE narrow > -20",
		"SELECT ts, status FROM events",
		"SELECT DISTINCT narrow, status, service FROM events",
	} {
		for _, r := range differential(t, sn, q, diffOpts{pars: []int{1, 2, 4}}) {
			rows := r.res.Rows
			if len(rows) <= 1024 {
				t.Fatalf("%s: %d rows, want more than one batch", q, len(rows))
			}
			before := make([]string, len(rows))
			for i, row := range rows {
				before[i] = rowKey(row)
			}
			appended := store.Text("appended")
			for i, row := range rows {
				if grown := append(row, appended); grown[len(row)] != appended {
					t.Fatalf("par=%d: row %d did not grow", r.par, i)
				}
			}
			for i, row := range rows {
				if rowKey(row) != before[i] {
					t.Fatalf("par=%d: row %d is %v after appending to every row, was %q\nsql: %s", r.par, i, row, before[i], q)
				}
			}
		}
	}
}
