package store

import (
	"sync"
	"testing"
)

// spillTable builds a table of n deterministic rows at segRows-row
// segments over a spill-enabled DB with the given cache budget.
func spillTable(t *testing.T, n, segRows int, budget int64) (*DB, *Table) {
	t.Helper()
	tab := segTestTable(t)
	meta := tab.Meta
	db := &DB{tables: map[string]*Table{meta.Name: tab}}
	if err := db.EnableSpill(t.TempDir(), budget); err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentRows(segRows)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = segTestRow(i)
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// TestSegCacheSpillEvictFault: with the dataset several times the
// budget, adoption spills every sealed segment, eviction keeps the
// resident bytes within budget, and reads after EvictAll fault
// payloads back from disk cell-for-cell identical to the in-memory
// build. Zone maps never leave the segment identity.
func TestSegCacheSpillEvictFault(t *testing.T) {
	const n, segRows = 4096, 256
	db, tab := spillTable(t, n, segRows, 20<<10) // ~a couple of segments
	c := db.SegCache()

	snap := tab.Snap()
	ss := snap.Segments() // triggers adoption
	st := c.Stats()
	sealed := 0
	for _, seg := range ss.Segs {
		if seg.Sealed {
			sealed++
		}
	}
	if st.SpilledSegs != int64(sealed) || st.SpillErrs != 0 {
		t.Fatalf("spilled %d/%d sealed segments (%d errors)", st.SpilledSegs, sealed, st.SpillErrs)
	}
	if st.Evictions == 0 {
		t.Fatal("dataset over budget but nothing evicted")
	}
	if st.Used > st.Budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Used, st.Budget)
	}

	// Evicted segments keep their zone maps; at least one payload must
	// be gone given budget << data.
	evicted := 0
	for _, seg := range ss.Segs {
		if len(seg.Zones) != len(tab.Meta.Columns) {
			t.Fatalf("segment lost its zone maps: %d", len(seg.Zones))
		}
		if seg.Sealed && seg.Resident() == nil {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no sealed segment is evicted")
	}

	// Cold read-through: every cell equals the row layout.
	c.EvictAll()
	checkSegSet(t, snap, "after EvictAll")
	if st := c.Stats(); st.Misses == 0 {
		t.Fatal("cold read faulted nothing in")
	}

	// The unsealed tail never spills and stays readable.
	tail := ss.Segs[len(ss.Segs)-1]
	if !tail.Sealed {
		if tail.Resident() == nil {
			t.Fatal("unsealed tail lost its payload")
		}
	}
}

// TestSegCacheHitPath: with an ample budget nothing is evicted and
// repeated Cols calls are hits, not faults.
func TestSegCacheHitPath(t *testing.T) {
	db, tab := spillTable(t, 1024, 256, 64<<20)
	c := db.SegCache()
	ss := tab.Snap().Segments()
	base := c.Stats()
	if base.Evictions != 0 {
		t.Fatalf("%d evictions under an ample budget", base.Evictions)
	}
	for i := 0; i < 3; i++ {
		for _, seg := range ss.Segs {
			if _, err := seg.Cols(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Misses != base.Misses {
		t.Fatalf("warm reads faulted: misses %d -> %d", base.Misses, st.Misses)
	}
	if st.Hits == base.Hits {
		t.Fatal("warm reads counted no hits")
	}
}

// TestSegCacheSingleflight: concurrent faults of one evicted segment
// collapse into a single disk read and all callers get identical,
// fully decoded columns.
func TestSegCacheSingleflight(t *testing.T) {
	db, tab := spillTable(t, 512, 256, 64<<20)
	c := db.SegCache()
	ss := tab.Snap().Segments()
	seg := ss.Segs[0]
	if !seg.Sealed {
		t.Fatal("fixture: first segment not sealed")
	}
	c.EvictAll()
	before := c.Stats()

	const par = 16
	var wg sync.WaitGroup
	results := make([][]*SegCol, par)
	errs := make([]error, par)
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = seg.Cols(nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < par; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if len(results[i]) != len(tab.Meta.Columns) {
			t.Fatalf("goroutine %d: %d cols", i, len(results[i]))
		}
	}
	if got := c.Stats().Misses - before.Misses; got != 1 {
		t.Fatalf("%d disk faults for one segment under %d concurrent readers, want 1", got, par)
	}
}

// TestSegCacheFaultCancellation: a fault-in attempt whose done channel
// is already closed aborts with the cancellation sentinel instead of
// queueing on disk I/O.
func TestSegCacheFaultCancellation(t *testing.T) {
	db, tab := spillTable(t, 512, 256, 64<<20)
	c := db.SegCache()
	seg := tab.Snap().Segments().Segs[0]
	c.EvictAll()

	done := make(chan struct{})
	close(done)
	if _, err := seg.Cols(done); err != errSegFaultCanceled {
		t.Fatalf("canceled fault returned %v, want %v", err, errSegFaultCanceled)
	}
	// The segment is still readable afterwards.
	if _, err := seg.Cols(nil); err != nil {
		t.Fatalf("fault after cancellation: %v", err)
	}
}

// TestSegCacheClockSecondChance: a segment touched between eviction
// pressure survives one sweep (its reference bit buys a revolution)
// while untouched ones go first.
func TestSegCacheClockSecondChance(t *testing.T) {
	db, tab := spillTable(t, 2048, 256, 64<<20)
	c := db.SegCache()
	ss := tab.Snap().Segments()
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("pre-test evictions: %d", st.Evictions)
	}

	// Touch exactly one sealed segment, then squeeze the budget by
	// faulting pressure through a tiny manual sweep: set the budget low
	// and trigger eviction via a fresh fault cycle.
	hot := ss.Segs[0]
	if _, err := hot.Cols(nil); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.budget = int64(hot.Bytes()) + int64(hot.Bytes())/2
	c.evictLocked()
	c.mu.Unlock()

	if hot.Resident() == nil {
		t.Fatal("recently touched segment evicted before untouched peers")
	}
	cold := 0
	for _, seg := range ss.Segs[1:] {
		if seg.Sealed && seg.Resident() == nil {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("no untouched segment was evicted")
	}
}

// TestEnableSpillIdempotent: the first enable wins; later calls are
// no-ops and the cache identity is stable.
func TestEnableSpillIdempotent(t *testing.T) {
	db, _ := spillTable(t, 256, 128, 1<<20)
	c := db.SegCache()
	if c == nil {
		t.Fatal("no cache after EnableSpill")
	}
	if err := db.EnableSpill(t.TempDir(), 123); err != nil {
		t.Fatal(err)
	}
	if db.SegCache() != c {
		t.Fatal("second EnableSpill replaced the cache")
	}
}

// TestSegCacheStatsShape: counters are internally consistent after a
// spill/evict/fault cycle.
func TestSegCacheStatsShape(t *testing.T) {
	db, tab := spillTable(t, 2048, 256, 16<<10)
	c := db.SegCache()
	snap := tab.Snap()
	_ = snap.Segments()
	c.EvictAll()
	checkSegSet(t, snap, "stats cycle")
	st := c.Stats()
	if st.SpilledBytes <= 0 || st.FaultBytes <= 0 {
		t.Fatalf("byte counters not advancing: %+v", st)
	}
	if st.Resident < 0 || st.Used < 0 {
		t.Fatalf("negative residency: %+v", st)
	}
	if st.FaultErrs != 0 || st.SpillErrs != 0 {
		t.Fatalf("unexpected errors: %+v", st)
	}
}

// TestSegmentNoCacheError: an evicted payload with no cache to fault
// from is an error, not a panic (guards against future misuse of the
// identity/payload split).
func TestSegmentNoCacheError(t *testing.T) {
	s := &Segment{N: 1, Sealed: true}
	if _, err := s.Cols(nil); err == nil {
		t.Fatal("payload-less, cache-less segment returned columns")
	}
	if s.Resident() != nil {
		t.Fatal("Resident on an empty segment")
	}
}
