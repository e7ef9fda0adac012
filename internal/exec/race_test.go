package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// The race battery: every executor mode (serial row-at-a-time,
// parallel, vectorized, reference) reads while writers are actively
// publishing — single inserts, bulk batches, CSV loads — under the
// race detector. Writers maintain invariants that hold on every
// published version but on no torn mix of versions, so any query
// observing two versions at once fails loudly:
//
//   - events rows arrive only in batches of batchSize with a common
//     batch id and values summing to zero per batch;
//   - aux rows all carry v = 3.
//
// A query pinned to one snapshot therefore always sees COUNT(*)
// divisible by batchSize, SUM(val) = 0, and no partial batch group.

const batchSize = 32

func raceDB(t testing.TB) *store.DB {
	t.Helper()
	s := schema.MustNew("race", []*schema.Table{
		{Name: "events", Columns: []schema.Column{
			{Name: "batch", Type: schema.Int},
			{Name: "val", Type: schema.Int},
		}},
		{Name: "aux", Columns: []schema.Column{
			{Name: "k", Type: schema.Int},
			{Name: "v", Type: schema.Int},
		}},
		{Name: "csvt", Columns: []schema.Column{
			{Name: "batch", Type: schema.Int},
			{Name: "val", Type: schema.Int},
		}},
	}, nil)
	db := store.NewDB(s)
	if err := db.Table("events").BuildIndex("batch"); err != nil {
		t.Fatal(err)
	}
	return db
}

// eventBatch builds batch i of the events/csvt tables: batchSize rows,
// all tagged i, values pairing +j with -j so the batch sums to zero.
func eventBatch(i int) []store.Row {
	rows := make([]store.Row, batchSize)
	for j := 0; j < batchSize/2; j++ {
		v := int64(j + 1)
		rows[2*j] = store.Row{store.Int(int64(i)), store.Int(v)}
		rows[2*j+1] = store.Row{store.Int(int64(i)), store.Int(-v)}
	}
	return rows
}

// compileRun compiles stmt at degree par and runs it under o, all on
// the one pinned snapshot.
func compileRun(sn *store.Snapshot, stmt *sql.SelectStmt, par int, o RunOpts) (*Result, error) {
	p, err := Compile(sn, stmt, par)
	if err != nil {
		return nil, err
	}
	return Run(context.Background(), sn, p, o)
}

// queryFns enumerates the executor modes under test, each over the
// snapshot it is handed.
func queryFns() map[string]func(*store.Snapshot, *sql.SelectStmt) (*Result, error) {
	mode := func(par int, o RunOpts) func(*store.Snapshot, *sql.SelectStmt) (*Result, error) {
		return func(sn *store.Snapshot, s *sql.SelectStmt) (*Result, error) { return compileRun(sn, s, par, o) }
	}
	return map[string]func(*store.Snapshot, *sql.SelectStmt) (*Result, error){
		"serial":    Query,
		"parallel":  mode(4, RunOpts{}),
		"novec":     mode(1, RunOpts{NoVec: true}),
		"novec-par": mode(4, RunOpts{NoVec: true}),
		"reference": ReferenceQueryAt,
	}
}

// intCell unboxes a numeric aggregate cell (NULL counts as 0). It is
// called from reader goroutines, so it reports failure instead of
// calling into testing.T (FailNow must not run off the test goroutine).
func intCell(v store.Value) (int64, bool) {
	if v.IsNull() {
		return 0, true
	}
	f, ok := v.AsFloat()
	return int64(f), ok
}

// TestConcurrentReadersUnderWriters runs all executor modes against a
// writer inserting into events (bulk), aux (single rows) and csvt
// (CSV loader) and asserts every query saw exactly one snapshot.
func TestConcurrentReadersUnderWriters(t *testing.T) {
	db := raceDB(t)
	countSum := sql.MustParse("SELECT COUNT(*), SUM(val) FROM events")
	torn := sql.MustParse(
		fmt.Sprintf("SELECT batch, COUNT(*) FROM events GROUP BY batch HAVING COUNT(*) <> %d", batchSize))
	probe := sql.MustParse("SELECT COUNT(*) FROM events WHERE batch = 5")
	auxQ := sql.MustParse("SELECT COUNT(*), SUM(v) FROM aux")
	csvQ := sql.MustParse("SELECT COUNT(*), SUM(val) FROM csvt")

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 40; i++ {
			if err := db.BulkInsert("events", eventBatch(i)); err != nil {
				t.Error(err)
				return
			}
			if err := db.Insert("aux", store.Int(int64(i)), store.Int(3)); err != nil {
				t.Error(err)
				return
			}
			var b strings.Builder
			b.WriteString("batch,val\n")
			for _, row := range eventBatch(i) {
				fmt.Fprintf(&b, "%d,%d\n", row[0].Int64(), row[1].Int64())
			}
			if _, err := db.LoadCSV("csvt", strings.NewReader(b.String())); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for name, fn := range queryFns() {
		wg.Add(1)
		go func(name string, fn func(*store.Snapshot, *sql.SelectStmt) (*Result, error)) {
			defer wg.Done()
			for !done.Load() {
				res, err := fn(db.Snapshot(), countSum)
				if err != nil {
					t.Errorf("%s count/sum: %v", name, err)
					return
				}
				n, okN := intCell(res.Rows[0][0])
				sum, okS := intCell(res.Rows[0][1])
				if !okN || !okS {
					t.Errorf("%s: non-numeric aggregate cells %v", name, res.Rows[0])
					return
				}
				if n%batchSize != 0 {
					t.Errorf("%s: torn read, COUNT(*) = %d not a multiple of %d", name, n, batchSize)
					return
				}
				if sum != 0 {
					t.Errorf("%s: torn read, SUM(val) = %d over %d rows", name, sum, n)
					return
				}

				res, err = fn(db.Snapshot(), torn)
				if err != nil {
					t.Errorf("%s torn groups: %v", name, err)
					return
				}
				if len(res.Rows) != 0 {
					t.Errorf("%s: partial batch visible: %v", name, res.Rows[0])
					return
				}

				res, err = fn(db.Snapshot(), probe)
				if err != nil {
					t.Errorf("%s probe: %v", name, err)
					return
				}
				if n, ok := intCell(res.Rows[0][0]); !ok || (n != 0 && n != batchSize) {
					t.Errorf("%s: index probe saw partial batch: %d rows (numeric=%v)", name, n, ok)
					return
				}

				for _, q := range []*sql.SelectStmt{auxQ, csvQ} {
					res, err = fn(db.Snapshot(), q)
					if err != nil {
						t.Errorf("%s aux/csv: %v", name, err)
						return
					}
					n, okN := intCell(res.Rows[0][0])
					sum, okS := intCell(res.Rows[0][1])
					if !okN || !okS {
						t.Errorf("%s: non-numeric aggregate cells %v", name, res.Rows[0])
						return
					}
					if q == auxQ && sum != 3*n {
						t.Errorf("%s: aux torn read, SUM %d over %d rows", name, sum, n)
						return
					}
					if q == csvQ && (n%batchSize != 0 || sum != 0) {
						t.Errorf("%s: csv torn read, %d rows sum %d", name, n, sum)
						return
					}
				}
			}
		}(name, fn)
	}
	wg.Wait()

	// The final state must contain everything the writer published.
	res, err := Query(db.Snapshot(), countSum)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := intCell(res.Rows[0][0]); !ok || n != 40*batchSize {
		t.Fatalf("final events count %d (numeric=%v), want %d", n, ok, 40*batchSize)
	}
}

// TestSnapshotQueryRepeatable: a query plan compiled and run on an
// explicitly pinned snapshot returns identical results before and
// after concurrent writes — the API-level snapshot-pinning contract
// (exec.Query / Run on one Snapshot) the engine relies on.
func TestSnapshotQueryRepeatable(t *testing.T) {
	db := raceDB(t)
	for i := 0; i < 4; i++ {
		if err := db.BulkInsert("events", eventBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	sn := db.Snapshot()
	q := sql.MustParse("SELECT batch, COUNT(*), SUM(val) FROM events GROUP BY batch ORDER BY batch")
	before, err := Query(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 12; i++ {
		if err := db.BulkInsert("events", eventBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := Query(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 4 || len(after.Rows) != len(before.Rows) {
		t.Fatalf("pinned snapshot drifted: %d then %d groups", len(before.Rows), len(after.Rows))
	}
	live, err := Query(db.Snapshot(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) != 12 {
		t.Fatalf("live query sees %d groups, want 12", len(live.Rows))
	}
}
