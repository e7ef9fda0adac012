package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
	"weak"

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
// set NULLs sparsely (IN over a list holding NULL, NOT over a column
// with NULLs), a DISTINCT aggregate, every other accumulator (FIRST,
// MIN and MAX over text, ints and floats, an INT AVG), and a three-way
// join over the university tables at scale 4, where its aggregate
// folds in workers.
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
		{sn, "SELECT events.level, COUNT(*) FROM events WHERE events.status IN (500, NULL) GROUP BY events.level", false},
		{sn, "SELECT events.service, SUM(events.latency_ms), MAX(events.latency_ms) FROM events WHERE NOT (events.latency_ms > 150.5) GROUP BY events.service", false},
		{sn, "SELECT events.level, COUNT(DISTINCT events.device_id), SUM(events.latency_ms) FROM events GROUP BY events.level", false},
		{sn, "SELECT events.service, events.level, MIN(events.level), MAX(events.event_id), MIN(events.latency_ms), AVG(events.status) FROM events WHERE events.status > 250 GROUP BY events.service", false},
		{uni, "SELECT s.name, c.title, e.grade FROM enrollments e, students s, courses c WHERE e.student_id = s.id AND e.course_id = c.course_id AND s.gpa > 3.0", false},
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
// ask_scan shapes, a join that returns its rows, Sort, Limit, Distinct,
// a DISTINCT aggregate and a three-way join. A buffer handed out
// uncleared and read before written — a join build's hash
// accumulators, an empty bucket, a null mask, a column builder that a
// join build or a Sort drains into — shows as a wrong answer. A run
// that takes a buffer past the poisoned ones — one more of a type, or
// a longer one — would get zeros there, so it fails the test: every
// take a fresh borrow makes holds garbage, and a second run holds what
// the first left. The same again after runs cancelled mid-scan, whose
// scratch goes back to the pool half-written. Not skipped under -short:
// under -race it runs concurrent borrowers against the pool.
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
	fanned := 0
	check := func(t *testing.T) {
		t.Helper()
		for i, q := range queries {
			for _, par := range []int{1, 2, 4} {
				p, err := exec.Compile(q.sn, sql.MustParse(q.sql), par)
				if err != nil {
					t.Fatal(err)
				}
				if p.Par > 1 {
					fanned++
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
	if fanned == 0 {
		t.Fatal("no query fanned out over workers")
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
// the pool's cap. Over a 2^16-row table, a self-join builds a hash
// table of 2^16 rows — hashes, buckets, chains and the key column's
// builder alone are 1.6 MiB — a Sort drains four int columns of 2^16
// rows into builders (2.3 MiB), and a GROUP BY and a DISTINCT over its
// 2^16 distinct keys grow key sets as large, the GROUP BY's
// accumulators on top; the pool holds nothing over the cap after any of
// them, and no key set or column builder with room for the table's
// rows, so the next borrow gets a fresh scratch, not the big one.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	// At one P, every pooled scratch is reachable from this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 1 << 16
	db := store.NewDB(dataset.TelemetrySchema())
	db.MustBulkInsert("events", dataset.TelemetryEventRows(rows))
	sn := db.Snapshot()
	for _, q := range []string{
		"SELECT a.event_id FROM events a, events b WHERE a.event_id = b.event_id",
		"SELECT events.event_id, events.ts FROM events ORDER BY events.ts DESC, events.event_id",
		"SELECT events.event_id, COUNT(*), SUM(events.status) FROM events GROUP BY events.event_id",
		"SELECT DISTINCT events.event_id FROM events",
	} {
		p, err := exec.Compile(sn, sql.MustParse(q), 1)
		if err != nil {
			t.Fatal(err)
		}
		plan.DrainScratchPool()
		res, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows {
			t.Fatalf("%d rows, want %d\nsql: %s", len(res.Rows), rows, q)
		}
		for _, s := range plan.DrainScratchPool() {
			if s.Bytes > plan.MaxPooledScratch {
				t.Errorf("pooled a %d-byte scratch; the cap is %d\nsql: %s", s.Bytes, plan.MaxPooledScratch, q)
			}
			if s.Keys >= rows {
				t.Errorf("pooled a key set with room for %d keys\nsql: %s", s.Keys, q)
			}
			if s.Rows >= rows {
				t.Errorf("pooled a column builder with room for %d rows\nsql: %s", s.Rows, q)
			}
		}
	}
}

// TestPooledScratchPinsNothing: a scratch goes back to the pool without
// the headers, strings and contexts its run left in it — views of
// segment payloads and dictionaries, a group table's plan, worker
// contexts holding the snapshot — so the pool keeps no evicted payload
// or dropped snapshot's segments alive. The first join drains the
// devices' text columns into its build and scans events in every
// encoding; the second drains events' dictionary text into its build's
// builders, and the Sort drains it into its own and gathers it through
// its permutation; the grouped runs key, and keep MIN and FIRST
// strings, on dictionary text; the DISTINCTs number dictionary strings
// in key sets. Last, with a
// run of each back in the pool, the snapshot is dropped, and one
// collection — which leaves pooled items in the pool's victim cache,
// still reachable — must free every column of its sealed segments.
func TestPooledScratchPinsNothing(t *testing.T) {
	// At one P, every pooled scratch is reachable from this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sn := poolDB(t).Snapshot()
	stmts := []*sql.SelectStmt{
		sql.MustParse("SELECT events.event_id, devices.region, devices.model, events.service FROM events, devices WHERE events.device_id = devices.device_id AND events.status > 400"),
		sql.MustParse("SELECT devices.region, events.service, events.level FROM devices, events WHERE devices.device_id = events.device_id AND events.level = 'error'"),
		sql.MustParse("SELECT events.service, events.level, events.event_id FROM events WHERE events.status > 250 ORDER BY events.service, events.level DESC"),
		sql.MustParse("SELECT events.service, COUNT(*), MIN(events.level), devices.region FROM events, devices WHERE events.device_id = devices.device_id GROUP BY events.service"),
		sql.MustParse("SELECT DISTINCT events.service, events.level FROM events WHERE events.status > 250"),
		sql.MustParse("SELECT events.level, COUNT(DISTINCT events.service) FROM events GROUP BY events.level"),
	}
	plan.DrainScratchPool()
	pooled := 0
	for _, stmt := range stmts {
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
						t.Errorf("par=%d: a pooled scratch holds %d headers, strings and contexts\nsql: %s", par, s.Refs, stmt)
					}
				}
			}
		}
	}
	if pooled == 0 {
		t.Fatal("no scratch went back to the pool")
	}

	// A column header views a column's payload, not the SegCol, so each
	// payload array is watched.
	var payloads []func() bool // alive
	watch := func(p *byte) {
		if p != nil {
			w := weak.Make(p)
			payloads = append(payloads, func() bool { return w.Value() != nil })
		}
	}
	for _, name := range []string{"events", "devices"} {
		for _, seg := range sn.Table(name).Segments().Segs {
			for _, c := range seg.Cols() {
				watch(firstByte(c.Ints))
				watch(firstByte(c.Floats))
				watch(firstByte(c.Strs))
				watch(firstByte(c.Bools))
				watch(firstByte(c.Codes))
				watch(firstByte(c.Dict))
				watch(firstByte(c.D16))
			}
		}
	}
	for _, stmt := range stmts {
		for _, par := range []int{1, 2} {
			p, err := exec.Compile(sn, stmt, par)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sn = nil
	runtime.GC()
	for i, alive := range payloads {
		if alive() {
			t.Fatalf("segment payload %d of %d outlived its snapshot: the pool keeps it alive", i, len(payloads))
		}
	}
	plan.DrainScratchPool()
}

// firstByte is where a non-empty slice's array starts; nil when empty.
func firstByte[T any](s []T) *byte {
	if len(s) == 0 {
		return nil
	}
	return (*byte)(unsafe.Pointer(&s[0]))
}
