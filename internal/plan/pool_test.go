package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// poolEvents is the event log the pool tests run over: four sealed
// 4,096-row segments (dictionary-coded text, FOR-coded ints, NULL
// latencies) and a plain tail, joined to the 4,096 devices.
const poolEvents = 4*4096 + 1616

func poolDB(t *testing.T) *store.DB {
	t.Helper()
	db := store.NewDB(dataset.TelemetrySchema())
	db.MustBulkInsert("devices", dataset.DeviceRows())
	db.Table("events").SetSegmentRows(4096)
	db.MustBulkInsert("events", dataset.TelemetryEventRows(poolEvents))
	return db
}

// poolQuery is one statement of the pool tests and the snapshot it
// runs over.
type poolQuery struct {
	sn      *store.Snapshot
	sql     string
	ordered bool // the SQL fixes row order
}

// poolQueries are the six ask_scan question shapes over poolEvents,
// then a join that keeps its rows, Sort, Limit, Distinct, kernels that
// set NULLs sparsely (OR over a NULL, division by zero), a DISTINCT
// aggregate, and a cross join over the university tables at scale 4,
// where it runs under an exchange.
func poolQueries(t *testing.T) []poolQuery {
	const ts0 = 1_700_000_000
	span := poolEvents / 8
	win := func(width int) string {
		lo := ts0 + span/3
		return fmt.Sprintf("%d.0 AND %d.0", lo, lo+width)
	}
	sn := poolDB(t).Snapshot()
	uni := dataset.University(4).Snapshot()
	return []poolQuery{
		{sn, "SELECT COUNT(*) FROM events WHERE (events.latency_ms > 120.5)", false},
		{sn, "SELECT events.level, COUNT(*) FROM events WHERE events.ts BETWEEN " + win(span/4) + " GROUP BY events.level", false},
		{sn, "SELECT devices.region, AVG(events.latency_ms) FROM events, devices WHERE ((events.device_id = devices.device_id) AND events.ts BETWEEN " + win(span/8) + ") GROUP BY devices.region", false},
		{sn, "SELECT events.service, COUNT(*) FROM events WHERE (events.latency_ms > 120.5) GROUP BY events.service", false},
		{sn, "SELECT AVG(events.latency_ms) FROM events WHERE events.ts BETWEEN " + win(span/16), false},
		{sn, "SELECT COUNT(*) FROM events WHERE ((events.latency_ms > 120.5) AND (events.status > 250.0))", false},
		{sn, "SELECT events.event_id, devices.region, devices.model, events.latency_ms FROM events, devices WHERE events.device_id = devices.device_id AND events.status > 400", false},
		{sn, "SELECT events.service, events.latency_ms, events.event_id FROM events WHERE events.level = 'error' ORDER BY events.latency_ms DESC, events.event_id", true},
		{sn, "SELECT events.event_id, devices.region FROM events, devices WHERE events.device_id = devices.device_id AND events.latency_ms > 200.5 ORDER BY events.event_id LIMIT 25", true},
		{sn, "SELECT DISTINCT events.service, events.level FROM events WHERE events.status > 250", false},
		{sn, "SELECT events.level, COUNT(*) FROM events WHERE (events.latency_ms > 150.5 OR events.status = 500) GROUP BY events.level", false},
		{sn, "SELECT events.service, SUM(events.latency_ms / (events.status - 200)), MAX(events.latency_ms) FROM events GROUP BY events.service", false},
		{sn, "SELECT events.level, COUNT(DISTINCT events.device_id), SUM(events.latency_ms) FROM events GROUP BY events.level", false},
		{uni, "SELECT s.name, i.name, s.gpa FROM students s, instructors i WHERE s.gpa > 3.0 AND i.salary > 90000.0", false},
	}
}

// cellKey keys a row for exact comparison: each cell's kind, then a
// float's bit pattern or any other value's Key.
func cellKey(r store.Row) string {
	var b []byte
	for _, v := range r {
		b = append(b, byte(v.Kind()))
		if f, ok := v.AsFloat(); ok && v.Kind() == store.KindFloat {
			b = strconv.AppendUint(b, math.Float64bits(f), 16)
		} else {
			b = v.AppendKey(b)
		}
		b = append(b, '\x1f')
	}
	return string(b)
}

// sameAnswer reports how got differs from want: row for row when
// ordered, else as bags.
func sameAnswer(got, want []store.Row, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	counts := map[string]int{}
	for i := range want {
		if ordered && cellKey(got[i]) != cellKey(want[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
		}
		counts[cellKey(want[i])]++
	}
	for _, r := range got {
		if counts[cellKey(r)]--; counts[cellKey(r)] < 0 {
			return fmt.Errorf("row %v is not in the wanted bag", r)
		}
	}
	return nil
}

// TestBorrowedScratchIsNeverTrusted: every vscratch a run borrows may
// hold a previous question's buffers, so the pool is poisoned — each
// new scratch garbage in every buffer — and every shape the executor
// has must still equal the reference executor at par 1, 2 and 4: the
// ask_scan shapes, a kept join, Sort, Limit, Distinct, a DISTINCT
// aggregate and a cross join. A buffer handed out uncleared and read
// before written — a join build's hash accumulators, an empty bucket,
// a null mask — shows as a wrong answer. A run that takes a buffer past
// the poisoned ones — one more of a type, or a longer one — would get
// zeros there, so it fails the test: every take a fresh borrow makes
// holds garbage, and a second run holds what the first left. The same
// again after runs cancelled mid-scan, whose scratch goes back to the
// pool half-written. Not skipped under -short: under -race it runs
// concurrent borrowers against the pool.
func TestBorrowedScratchIsNeverTrusted(t *testing.T) {
	queries := poolQueries(t)
	want := make([][]store.Row, len(queries))
	for i, q := range queries {
		ref, err := exec.ReferenceQueryAt(q.sn, sql.MustParse(q.sql))
		if err != nil {
			t.Fatalf("reference: %v\nsql: %s", err, q.sql)
		}
		want[i] = ref.Rows
	}
	exchanges := 0
	check := func(t *testing.T) {
		t.Helper()
		for i, q := range queries {
			for _, par := range []int{1, 2, 4} {
				p, err := exec.Compile(q.sn, sql.MustParse(q.sql), par)
				if err != nil {
					t.Fatal(err)
				}
				if p.Par > 1 {
					exchanges++
				}
				// Twice: the second run borrows what the first handed back.
				for range 2 {
					res, err := exec.Run(context.Background(), q.sn, p, exec.RunOpts{})
					if err != nil {
						t.Fatalf("par=%d: %v\nsql: %s", par, err, q.sql)
					}
					if u := plan.UnpoisonedTakes(); len(u) > 0 {
						t.Fatalf("par=%d: took buffers the pool was not poisoned with: %v\nsql: %s", par, u, q.sql)
					}
					if err := sameAnswer(res.Rows, want[i], q.ordered); err != nil {
						t.Fatalf("par=%d: %v\nsql: %s", par, err, q.sql)
					}
				}
			}
		}
	}
	restore := plan.PoisonScratchPool()
	defer restore()

	t.Run("poisoned", check)
	if exchanges == 0 {
		t.Fatal("no query ran under an exchange")
	}

	t.Run("after cancel", func(t *testing.T) {
		sn := queries[0].sn
		stmt := sql.MustParse("SELECT events.level, COUNT(*) FROM events, devices WHERE events.device_id = devices.device_id GROUP BY events.level")
		for _, par := range []int{1, 4} {
			p, err := exec.Compile(sn, stmt, par)
			if err != nil {
				t.Fatal(err)
			}
			// A run to its end passes every checkpoint; the cancelled one
			// closes Done at a quarter of them.
			full := &plan.Ctx{Snap: sn}
			all := plan.CancelAtCheckpoint(full, 0)
			if _, err := plan.Run(p, full); err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			ctx := &plan.Ctx{Snap: sn}
			passed := plan.CancelAtCheckpoint(ctx, all()/4)
			_, err = plan.Run(p, ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d: run ended with %v, want it cancelled mid-scan", par, err)
			}
			if n := passed(); n >= all() {
				t.Fatalf("par=%d: %d of a full run's %d checkpoints: the scan ran to its end", par, n, all())
			}
			if u := plan.UnpoisonedTakes(); len(u) > 0 {
				t.Fatalf("par=%d: the cancelled run took buffers the pool was not poisoned with: %v", par, u)
			}
		}
		check(t)
	})
}

// TestOversizedScratchIsNotPooled: a run hands back only scratch within
// the pool's cap. A self-join of a 2^16-row table builds a hash table
// of 2^16 rows — hashes, buckets, chains and the key column alone are
// 1.6 MiB — and the pool holds nothing over the cap after it, so the
// next borrow gets a fresh scratch, not the big one.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	// At one P, every pooled scratch is reachable from this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 1 << 16
	db := store.NewDB(dataset.TelemetrySchema())
	db.MustBulkInsert("events", dataset.TelemetryEventRows(rows))
	sn := db.Snapshot()
	stmt := sql.MustParse("SELECT COUNT(*) FROM events a, events b WHERE a.event_id = b.event_id")
	p, err := exec.Compile(sn, stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan.DrainScratchPool()
	res, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsFloat(); n != rows {
		t.Fatalf("self-join counted %v rows, want %d", n, rows)
	}
	for _, s := range plan.DrainScratchPool() {
		if s.Bytes > plan.MaxPooledScratch {
			t.Errorf("pooled a %d-byte scratch; the cap is %d", s.Bytes, plan.MaxPooledScratch)
		}
	}
}

// TestPooledScratchPinsNothing: a scratch goes back to the pool without
// the column headers and strings its run left in it — views of segment
// payloads and dictionaries — so the pool keeps no evicted payload or
// dropped snapshot's segments alive. The join drains the devices' text
// columns into its build and scans events in every encoding.
func TestPooledScratchPinsNothing(t *testing.T) {
	// At one P, every pooled scratch is reachable from this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sn := poolDB(t).Snapshot()
	stmt := sql.MustParse("SELECT events.event_id, devices.region, devices.model, events.service FROM events, devices WHERE events.device_id = devices.device_id AND events.status > 400")
	plan.DrainScratchPool()
	pooled := 0
	for _, par := range []int{1, 2} {
		p, err := exec.Compile(sn, stmt, par)
		if err != nil {
			t.Fatal(err)
		}
		// A few runs: under the race detector the pool drops a scratch
		// at random.
		for range 3 {
			if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil {
				t.Fatal(err)
			}
			for _, s := range plan.DrainScratchPool() {
				pooled++
				if s.Refs > 0 {
					t.Errorf("par=%d: a pooled scratch holds %d column headers and strings", par, s.Refs)
				}
			}
		}
	}
	if pooled == 0 {
		t.Fatal("no scratch went back to the pool")
	}
}
