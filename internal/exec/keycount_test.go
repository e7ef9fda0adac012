package exec_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestRunHeapIgnoresKeyCount: a run's key sets and group tables come
// from its arena, whose pooled scratch keeps the capacity an earlier run
// grew them to, so with the pool warm a GROUP BY or a DISTINCT
// allocates as often over 4,096 distinct keys as over 16: what is left
// is compiled programs and the boxed answer, one slab an output batch.
// DISTINCT hands on a batch for each input batch that meets a new key,
// four over 4,096 keys against one over 16, and each costs a slab and
// a grown row slice: that is the slack. A key set that grew by
// appending on the heap would add a few dozen allocations, its hashes,
// chains, buckets and key columns doubling a dozen times each.
func TestRunHeapIgnoresKeyCount(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool drops a pooled item at
		// random, so no pool stays warm from one run to the next.
		t.Skip("the race detector empties the scratch pool at random")
	}
	const rows, slack = 1 << 14, 12
	s := schema.MustNew("keycount", []*schema.Table{{Name: "t", Columns: []schema.Column{
		{Name: "k", Type: schema.Int}, {Name: "v", Type: schema.Int},
	}}}, nil)
	snap := func(keys int) *store.Snapshot {
		db := store.NewDB(s)
		rs := make([]store.Row, rows)
		for i := range rs {
			rs[i] = store.Row{store.Int(int64(i % keys)), store.Int(int64(i))}
		}
		db.MustBulkInsert("t", rs)
		return db.Snapshot()
	}
	keyCounts := [2]int{16, 4096}
	sns := [2]*store.Snapshot{snap(keyCounts[0]), snap(keyCounts[1])}
	for _, q := range []string{
		"SELECT t.k, COUNT(*), SUM(t.v) FROM t GROUP BY t.k",
		"SELECT DISTINCT t.k FROM t",
	} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("par=%d/%s", par, q), func(t *testing.T) {
				var allocs [2]float64
				for i, sn := range sns {
					p, err := exec.Compile(sn, sql.MustParse(q), par)
					if err != nil {
						t.Fatal(err)
					}
					run := func() {
						res, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Rows) != keyCounts[i] {
							t.Fatalf("%d rows over %d keys", len(res.Rows), keyCounts[i])
						}
					}
					// Every scratch a run borrows serves a different operator
					// from one run to the next; a few dozen runs warm each.
					for range 40 {
						run()
					}
					allocs[i] = testing.AllocsPerRun(50, run)
				}
				if allocs[1] > allocs[0]+slack {
					t.Errorf("%.0f allocations a run over %d keys, %.0f over %d: the heap follows the keys",
						allocs[0], keyCounts[0], allocs[1], keyCounts[1])
				} else {
					t.Logf("%.0f allocations a run over %d keys, %.0f over %d", allocs[0], keyCounts[0], allocs[1], keyCounts[1])
				}
			})
		}
	}
}
