package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// retainSegRows seals the fixture's events into segments of half a
// batch, so every morsel of an Exchange yields many small batches for
// it to retain.
const retainSegRows = 512

// retainDB builds a telemetry-shaped pair of tables whose events
// columns between them seal into every segment encoding — plain, FOR
// at each delta width, RLE, dictionary — with NULLs in each, plus one
// NULL-free column (seq) for predicates that pass or reject whole
// batches. The encodings are asserted, not assumed.
func retainDB(t *testing.T, n int) *store.DB {
	t.Helper()
	intCol := func(name string) schema.Column { return schema.Column{Name: name, Type: schema.Int} }
	s := schema.MustNew("retain", []*schema.Table{
		{Name: "devices", Columns: []schema.Column{
			intCol("device_id"), {Name: "region", Type: schema.Text}}},
		{Name: "events", Columns: []schema.Column{
			intCol("seq"),                        // FOR, no NULLs
			intCol("wide"),                       // plain
			intCol("ts"),                         // RLE
			intCol("d8"),                         // FOR, 8-bit deltas
			intCol("device_id"),                  // FOR, 16-bit deltas
			intCol("d32"),                        // FOR, 32-bit deltas
			intCol("status"),                     // FOR, 16-bit deltas
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
		// stay long enough to seal as RLE.
		for c, every := range []int{0, 41, 211, 29, 31, 37, 47, 43, 23} {
			if every > 0 && i%every == every/2 {
				row[c] = store.Null()
			}
		}
		rows[i] = row
	}
	db.MustBulkInsert("events", rows)

	cols := db.Snapshot().Table("events").Segments().Segs[1].MustCols()
	for ci, want := range []struct {
		enc   store.SegEncoding
		width int // FOR delta bits
	}{{store.SegFOR, 16}, {store.SegPlain, 0}, {store.SegRLE, 0}, {store.SegFOR, 8},
		{store.SegFOR, 16}, {store.SegFOR, 32}, {store.SegFOR, 16}, {store.SegDict, 0}, {store.SegPlain, 0}} {
		c := cols[ci]
		width := 0
		switch {
		case c.D8 != nil:
			width = 8
		case c.D16 != nil:
			width = 16
		case c.D32 != nil:
			width = 32
		}
		if c.Enc != want.enc || width != want.width {
			t.Fatalf("fixture: events column %d sealed as %v/%d bits, want %v/%d", ci, c.Enc, width, want.enc, want.width)
		}
		if ci > 0 && c.Zone.Nulls == 0 {
			t.Fatalf("fixture: events column %d has no NULLs in segment 1", ci)
		}
	}
	return db
}

// TestRetainedBatchesNeverSeeScratch pins the vectorized pipeline's
// ownership rule from the outside: a batch is lent — its header, null
// masks and selection are reused for the producer's next batch, like
// the operator scratch behind them — so whoever holds data past the
// next pull must have copied it: the exchange's keep sink (AVG and
// Project plans here; COUNT/MIN/MAX plans fold inside the workers and
// keep nothing), and serially Limit, Sort, Distinct and the join build.
// Over a table cut into 32 segments, at one, two and four workers (16
// morsels of two segments each), every query must equal the reference
// executor as a bag and its own plan run row-at-a-time row for row;
// anything still pointing at a lent part or at scratch would have been
// overwritten by the batch's successors long before the merge.
func TestRetainedBatchesNeverSeeScratch(t *testing.T) {
	const n = 32*retainSegRows + 37
	db := retainDB(t, n)
	sn := db.Snapshot()
	const ts0, span = 1_700_000_000, n / 16
	win := func(width int) string { return fmt.Sprintf("%d.0 AND %d.0", ts0+span/3, ts0+span/3+width) }
	queries := []string{
		// Exchange over Project: filtered, then gathered through the selection.
		"SELECT ts, status FROM events WHERE status > 250.0 ORDER BY ts, status",
		"SELECT seq, wide, d8, d32, service FROM events WHERE d8 BETWEEN -10 AND 60.5 AND d32 > 1000",
		"SELECT seq, status + d8, wide FROM events WHERE NOT (status = 200) ORDER BY seq DESC LIMIT 700",
		// No selection at all: encoded columns, and the scan's lent null
		// masks, leave through a bare projection.
		"SELECT ts, d8, device_id, d32, status FROM events",
		"SELECT seq, latency_ms, service FROM events WHERE seq >= 0",
		// Kept by the exchange until an aggregate that cannot merge
		// partials reads them: float sums, with NULL arguments.
		"SELECT service, AVG(latency_ms), COUNT(*) FROM events WHERE status > 250.0 GROUP BY service",
		"SELECT d8, SUM(latency_ms), MIN(latency_ms) FROM events GROUP BY d8",
		// Consumers that hold rows across pulls, serial or above the merge:
		// a streaming LIMIT that ends mid-batch, DISTINCT's seen set.
		"SELECT seq, d8, service FROM events WHERE d8 > 100 LIMIT 1500",
		"SELECT DISTINCT status, d8 FROM events WHERE wide > 0",
		// The six ask_scan shapes: Exchange over Filter, Aggregate above.
		"SELECT COUNT(*) FROM events WHERE (events.latency_ms > 120.5)",
		"SELECT events.service, COUNT(*) FROM events WHERE events.ts BETWEEN " + win(span/4) + " GROUP BY events.service",
		"SELECT devices.region, AVG(events.latency_ms) FROM events, devices WHERE ((events.device_id = devices.device_id) AND events.ts BETWEEN " + win(span/8) + ") GROUP BY devices.region",
		"SELECT events.service, COUNT(*) FROM events WHERE (events.latency_ms > 120.5) GROUP BY events.service",
		"SELECT AVG(events.latency_ms) FROM events WHERE events.ts BETWEEN " + win(span/16),
		"SELECT COUNT(*) FROM events WHERE ((events.latency_ms > 120.5) AND (events.status > 250.0))",
		// Aggregates that read encoded columns as keys and arguments.
		"SELECT status, d8, COUNT(*), SUM(d32), MIN(ts), MAX(device_id) FROM events WHERE wide > 0 GROUP BY status, d8",
		// Every row passes (the selection stays absent), and none does.
		"SELECT COUNT(*), SUM(status) FROM events WHERE seq >= 0",
		"SELECT seq, ts FROM events WHERE seq >= 0.0 ORDER BY seq DESC LIMIT 5",
		"SELECT COUNT(*), MAX(ts) FROM events WHERE seq < 0",
		"SELECT seq FROM events WHERE seq < -0.5",
		// A filtered events side small enough, by estimate, to be the build
		// side: the join retains all its batches before hashing them.
		"SELECT f.seq, e.status, f.ts FROM events e, events f WHERE e.seq = f.seq AND e.status > 450 AND e.d8 < 100",
		"SELECT d.region, COUNT(*), MIN(e.d32) FROM events e, devices d WHERE e.device_id = d.device_id AND e.status > 250 GROUP BY d.region",
	}
	for _, q := range queries {
		stmt := sql.MustParse(q)
		ref, err := exec.ReferenceQueryAt(sn, stmt)
		if err != nil {
			t.Fatalf("reference: %v\nsql: %s", err, q)
		}
		for _, par := range []int{1, 2, 4} {
			p, err := exec.Compile(sn, stmt, par)
			if err != nil {
				t.Fatalf("compile: %v\nsql: %s", err, q)
			}
			if !p.Vec {
				t.Fatalf("plan does not vectorize end to end:\n%s\nsql: %s", p.Explain(), q)
			}
			vec, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
			if err != nil {
				t.Fatalf("vectorized run (par=%d): %v\nsql: %s", par, err, q)
			}
			row, err := exec.Run(context.Background(), sn, p, exec.RunOpts{NoVec: true})
			if err != nil {
				t.Fatalf("row run (par=%d): %v\nsql: %s", par, err, q)
			}
			if err := rowsIdentical(vec, row); err != nil {
				t.Errorf("par=%d: vectorized vs row-at-a-time: %v\nsql: %s", par, err, q)
			}
			if err := sameBag(vec, ref); err != nil {
				t.Errorf("par=%d: vectorized vs reference: %v\nsql: %s", par, err, q)
			}
		}
	}
}
