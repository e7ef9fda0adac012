package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/schema"
)

func snapTestDB(t testing.TB) *DB {
	t.Helper()
	s := schema.MustNew("snap", []*schema.Table{
		{Name: "m", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "score", Type: schema.Float},
			{Name: "tag", Type: schema.Text},
		}},
		{Name: "other", Columns: []schema.Column{
			{Name: "k", Type: schema.Int},
		}},
	}, nil)
	return NewDB(s)
}

// randRow deterministically fabricates row i, with NULLs sprinkled in.
func randRow(r *rand.Rand, i int) Row {
	score := Value(Float(float64(r.Intn(1000)) / 10))
	if r.Intn(7) == 0 {
		score = Null()
	}
	return Row{Int(int64(i)), score, Text(fmt.Sprintf("tag%d", r.Intn(5)))}
}

// verifySnapConsistent asserts that everything reachable from one
// pinned snapshot — the segment layout, statistics, ordered-index range
// scans, hash-index probes — agrees with the snapshot's own row data.
// This is the snapshot-semantics property the planner and both
// executors rely on: all access paths of a pinned version describe the
// same rows.
func verifySnapConsistent(t *testing.T, snap *TableSnap) {
	t.Helper()
	rows := snap.Rows()
	if snap.Len() != len(rows) {
		t.Fatalf("Len %d != len(Rows) %d", snap.Len(), len(rows))
	}

	// The segment layout — the face every question scans — mirrors the
	// row data cell for cell.
	checkSegSet(t, snap, "pinned snapshot")

	// Stats agree with a direct scan of the snapshot's rows.
	for ci, mc := range snap.Meta.Columns {
		st, ok := snap.Stats(mc.Name)
		if !ok {
			t.Fatalf("no stats for %s", mc.Name)
		}
		want := computeStats(rows, ci)
		if st.Rows != want.Rows || st.Nulls != want.Nulls || st.Distinct != want.Distinct ||
			Compare(st.Min, want.Min) != 0 || Compare(st.Max, want.Max) != 0 {
			t.Fatalf("stats for %s: got %+v want %+v", mc.Name, st, want)
		}
	}

	// Ordered-index range scans match a naive filter over the rows.
	for ci, mc := range snap.Meta.Columns {
		if !snap.HasOrderedIndex(mc.Name) {
			continue
		}
		st, _ := snap.Stats(mc.Name)
		if st.Min.IsNull() {
			continue
		}
		lo, hi := st.Min, st.Max
		ids, ok := snap.LookupRange(mc.Name, &lo, &hi, true, true)
		if !ok {
			t.Fatalf("ordered index on %s vanished", mc.Name)
		}
		want := 0
		for _, row := range rows {
			if !row[ci].IsNull() {
				want++
			}
		}
		if len(ids) != want {
			t.Fatalf("range scan on %s: %d ids, want %d non-NULL rows", mc.Name, len(ids), want)
		}
		for k := 1; k < len(ids); k++ {
			if Compare(rows[ids[k-1]][ci], rows[ids[k]][ci]) > 0 {
				t.Fatalf("range scan on %s not sorted at %d", mc.Name, k)
			}
		}
	}

	// Hash probes return exactly the matching row ids.
	for ci, mc := range snap.Meta.Columns {
		if !snap.HasIndex(mc.Name) {
			continue
		}
		for _, probe := range rows {
			v := probe[ci]
			ids, ok := snap.LookupIndex(mc.Name, v)
			if !ok {
				t.Fatalf("hash index on %s vanished", mc.Name)
			}
			want := 0
			for _, row := range rows {
				if Compare(row[ci], v) == 0 {
					want++
				}
			}
			if len(ids) != want {
				t.Fatalf("hash probe on %s=%v: %d ids, want %d", mc.Name, v, len(ids), want)
			}
			break // one probe per column keeps the test fast
		}
	}
}

// TestSnapshotPinnedUnderWrites is the snapshot-semantics property
// test: snapshots pinned between arbitrary interleaved writes (single
// inserts, bulk batches, index DDL) stay frozen — their length, rows,
// segments, statistics and index scans all keep describing the pinned
// instant after any number of later writes to the live table. The seal
// boundary is small so the writes cross seals and extendSegs.
func TestSnapshotPinnedUnderWrites(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := snapTestDB(t)
	tab := db.Table("m")
	tab.SetSegmentRows(5)

	type pinned struct {
		snap *TableSnap
		len  int
		sum  int64 // sum of ids, a cheap content fingerprint
	}
	var pins []pinned
	pin := func() {
		s := tab.Snap()
		var sum int64
		for _, row := range s.Rows() {
			sum += row[0].Int64()
		}
		pins = append(pins, pinned{snap: s, len: s.Len(), sum: sum})
	}

	next := 0
	pin()
	for step := 0; step < 60; step++ {
		switch r.Intn(5) {
		case 0:
			if err := tab.Insert(randRow(r, next)...); err != nil {
				t.Fatal(err)
			}
			next++
		case 1:
			batch := make([]Row, 1+r.Intn(20))
			for i := range batch {
				batch[i] = randRow(r, next)
				next++
			}
			if err := tab.BulkInsert(batch); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := tab.BuildIndex("tag"); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := tab.BuildOrderedIndex("score"); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Warm the lazy caches so later writes take the
			// incremental extension paths.
			tab.Segments()
			tab.Stats("score")
			tab.Stats("id")
		}
		if r.Intn(3) == 0 {
			pin()
		}
	}
	pin()

	for i, p := range pins {
		if p.snap.Len() != p.len {
			t.Fatalf("pin %d: length moved %d -> %d", i, p.len, p.snap.Len())
		}
		var sum int64
		for _, row := range p.snap.Rows() {
			sum += row[0].Int64()
		}
		if sum != p.sum {
			t.Fatalf("pin %d: contents moved (sum %d -> %d)", i, p.sum, sum)
		}
		verifySnapConsistent(t, p.snap)
	}
}

// TestIncrementalMaintenanceEquivalence: a table whose indexes, stats
// and segments were maintained incrementally across many bulk
// inserts must be indistinguishable from one loaded in a single batch
// and indexed afterwards — the correctness contract of the
// copy-on-write merge/extend paths.
func TestIncrementalMaintenanceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var all []Row
	next := 0

	inc := snapTestDB(t).Table("m")
	inc.SetSegmentRows(7)
	if err := inc.BuildIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := inc.BuildIndex("tag"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		// Warm caches first so every round extends rather than rebuilds.
		inc.Segments()
		inc.Stats("id")
		inc.Stats("score")
		inc.Stats("tag")
		batch := make([]Row, 1+r.Intn(30))
		for i := range batch {
			batch[i] = randRow(r, next)
			next++
			all = append(all, batch[i])
		}
		if err := inc.BulkInsert(batch); err != nil {
			t.Fatal(err)
		}
	}

	fresh := snapTestDB(t).Table("m")
	if err := fresh.BulkInsert(all); err != nil {
		t.Fatal(err)
	}
	if err := fresh.BuildIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.BuildIndex("tag"); err != nil {
		t.Fatal(err)
	}

	a, b := inc.Snap(), fresh.Snap()
	verifySnapConsistent(t, a)
	verifySnapConsistent(t, b)
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for _, col := range []string{"id", "score", "tag"} {
		sa, _ := a.Stats(col)
		sb, _ := b.Stats(col)
		if sa.Rows != sb.Rows || sa.Nulls != sb.Nulls || sa.Distinct != sb.Distinct ||
			Compare(sa.Min, sb.Min) != 0 || Compare(sa.Max, sb.Max) != 0 {
			t.Errorf("stats for %s diverge: incremental %+v, fresh %+v", col, sa, sb)
		}
	}
	lo, hi := Int(0), Int(int64(next))
	ra, _ := a.LookupRange("id", &lo, &hi, true, false)
	rb, _ := b.LookupRange("id", &lo, &hi, true, false)
	if len(ra) != len(rb) {
		t.Errorf("range scans diverge: %d vs %d ids", len(ra), len(rb))
	}
	for i := range ra {
		if Compare(a.Row(ra[i])[0], b.Row(rb[i])[0]) != 0 {
			t.Fatalf("range scan order diverges at %d", i)
		}
	}
}

// TestIndexDDLKeepsVersion: building or dropping indexes republishes
// the same data — the per-table version (the answer cache's
// invalidation token) must not move, while row writes must move it.
func TestIndexDDLKeepsVersion(t *testing.T) {
	db := snapTestDB(t)
	tab := db.Table("m")
	if err := tab.Insert(Int(1), Float(1), Text("a")); err != nil {
		t.Fatal(err)
	}
	v := tab.Version()
	if err := tab.BuildIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tab.BuildOrderedIndex("score"); err != nil {
		t.Fatal(err)
	}
	tab.DropIndex("id")
	if tab.Version() != v {
		t.Errorf("index DDL moved the version: %d -> %d", v, tab.Version())
	}
	if err := tab.Insert(Int(2), Float(2), Text("b")); err != nil {
		t.Fatal(err)
	}
	if tab.Version() == v {
		t.Error("row write did not move the version")
	}
	if db.TableVersion("m") != tab.Version() {
		t.Error("DB.TableVersion disagrees with Table.Version")
	}
	if db.TableVersion("other") != 0 {
		t.Error("untouched table's version moved")
	}
}
