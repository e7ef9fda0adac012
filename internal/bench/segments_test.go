package bench

import (
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/store"
)

// Regression test for the snappin finding in MeasureSegFootprint: the
// old code read Len and Segments through the raw Table, so each call
// pinned whatever version writers had published by then and the
// reported footprint mixed row counts and byte totals from different
// versions. With one pinned TableSnap the figures must be internally
// consistent: a single-int-column table with no NULLs, short of its
// first seal, is one plain segment of SegBytes == Rows*8 exactly, at
// every version, no matter how the measurement interleaves with
// writers.
func TestMeasureSegFootprintConsistentUnderWrites(t *testing.T) {
	sc := schema.MustNew("pin", []*schema.Table{{
		Name:       "ticks",
		PrimaryKey: "n",
		Columns:    []schema.Column{{Name: "n", Type: schema.Int}},
	}}, nil)
	db := store.NewDB(sc)
	for i := 0; i < 64; i++ {
		db.MustInsert("ticks", store.Int(int64(i)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 64; ; i++ {
			select {
			case <-stop:
				return
			default:
				db.MustInsert("ticks", store.Int(int64(i)))
			}
		}
	}()

	for i := 0; i < 300; i++ {
		f := MeasureSegFootprint(db, "ticks")
		if f.SegBytes != f.Rows*8 {
			t.Fatalf("footprint mixes versions: Rows=%d implies SegBytes=%d, got %d",
				f.Rows, f.Rows*8, f.SegBytes)
		}
		if f.Rows < 64 {
			t.Fatalf("Rows=%d went below the pre-writer population", f.Rows)
		}
	}
	close(stop)
	wg.Wait()
}
