package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// The multi-writer race battery: several loaders bulk-insert into one
// table at once, each batch one batch id. The table's writer lock
// serializes their publishes and each BulkInsert publishes as one
// version, so the readers' invariants mirror race_test.go's single-
// writer battery: COUNT(*) divisible by batchSize, SUM(val) = 0, no
// partial batch group — all of which hold on every published version
// and on no torn mix.

func loadRaceDB(t testing.TB) *store.DB {
	t.Helper()
	s := schema.MustNew("loadrace", []*schema.Table{
		{Name: "events", Columns: []schema.Column{
			{Name: "batch", Type: schema.Int},
			{Name: "val", Type: schema.Int},
		}},
	}, nil)
	return store.NewDB(s)
}

// TestPartitionConcurrentLoaders drives 4 concurrent loaders, each
// publishing its own disjoint batch ids into one table, against readers
// running every executor mode; any reader observing a torn batch or a
// partial publish fails.
func TestPartitionConcurrentLoaders(t *testing.T) {
	db := loadRaceDB(t)
	countSum := sql.MustParse("SELECT COUNT(*), SUM(val) FROM events")
	torn := sql.MustParse(fmt.Sprintf(
		"SELECT batch, COUNT(*) FROM events GROUP BY batch HAVING COUNT(*) <> %d", batchSize))
	probe := sql.MustParse("SELECT COUNT(*) FROM events WHERE batch = 5")

	const loaders, perLoader = 4, 24
	var done atomic.Bool
	var live atomic.Int32
	live.Store(loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			defer func() {
				if live.Add(-1) == 0 {
					done.Store(true)
				}
			}()
			for i := 0; i < perLoader; i++ {
				if err := db.BulkInsert("events", eventBatch(l*perLoader+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(l)
	}

	for name, fn := range queryFns() {
		wg.Add(1)
		go func(name string, fn func(*store.Snapshot, *sql.SelectStmt) (*Result, error)) {
			defer wg.Done()
			prev := int64(0)
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
				if n < prev {
					t.Errorf("%s: row count went backwards, %d after %d", name, n, prev)
					return
				}
				prev = n

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
					t.Errorf("%s: key probe saw partial batch: %d rows (numeric=%v)", name, n, ok)
					return
				}
			}
		}(name, fn)
	}
	wg.Wait()

	// Final state: every loader's every batch.
	res, err := Query(db.Snapshot(), countSum)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := intCell(res.Rows[0][0]); !ok || n != loaders*perLoader*batchSize {
		t.Fatalf("final events count %d (numeric=%v), want %d", n, ok, loaders*perLoader*batchSize)
	}
}

// TestPartitionSnapshotRepeatable: a plan compiled and run on a pinned
// snapshot returns identical results before and after 4 concurrent
// loaders publish into the same table.
func TestPartitionSnapshotRepeatable(t *testing.T) {
	db := loadRaceDB(t)
	for i := 0; i < 8; i++ {
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

	var wg sync.WaitGroup
	for l := 0; l < 4; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := db.BulkInsert("events", eventBatch(8+l*8+i)); err != nil {
					t.Error(err)
				}
			}
		}(l)
	}
	wg.Wait()

	after, err := Query(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 8 || len(after.Rows) != 8 {
		t.Fatalf("pinned snapshot drifted: %d then %d groups", len(before.Rows), len(after.Rows))
	}
	for i := range before.Rows {
		for c := range before.Rows[i] {
			if before.Rows[i][c].Key() != after.Rows[i][c].Key() {
				t.Fatalf("pinned snapshot drifted at row %d: %v then %v", i, before.Rows[i], after.Rows[i])
			}
		}
	}
	live, err := Query(db.Snapshot(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) != 8+4*8 {
		t.Fatalf("live query sees %d groups, want %d", len(live.Rows), 8+4*8)
	}
}
