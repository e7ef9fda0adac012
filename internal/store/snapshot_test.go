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
// pinned snapshot — the segment layout and the statistics — agrees with
// the snapshot's own row data. This is the snapshot-semantics property
// the planner and both executors rely on: every face of a pinned
// version describes the same rows.
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
		if st != want {
			t.Fatalf("stats for %s: got %+v want %+v", mc.Name, st, want)
		}
	}
}

// TestSnapshotPinnedUnderWrites is the snapshot-semantics property
// test: snapshots pinned between arbitrary interleaved writes (single
// inserts, bulk batches, reseals) stay frozen — their length, rows,
// segments and statistics all keep describing the pinned instant after
// any number of later writes to the live table. The seal boundary is
// small so the writes cross seals and extendSegs.
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
		case 2, 3:
			// Reseal: the same rows republished under another seal
			// boundary, at the same version.
			tab.SetSegmentRows(3 + r.Intn(5))
		case 4:
			// Warm the lazy caches so later writes take the
			// incremental extension paths.
			tab.Snap().Segments()
			tab.Snap().Stats("score")
			tab.Snap().Stats("id")
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

// TestIncrementalMaintenanceEquivalence: a table whose stats and
// segments were maintained incrementally across many bulk inserts, and
// resealed part way through, must be indistinguishable from one loaded
// in a single batch — the correctness contract of the copy-on-write
// extend path.
func TestIncrementalMaintenanceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var all []Row
	next := 0

	inc := snapTestDB(t).Table("m")
	inc.SetSegmentRows(7)
	for round := 0; round < 8; round++ {
		// Warm caches first so every round extends rather than rebuilds.
		inc.Snap().Segments()
		inc.Snap().Stats("score")
		if round == 4 {
			// A reseal republishes the same version with cold caches, so
			// the rounds after it extend a layout built from scratch.
			v := inc.Version()
			inc.SetSegmentRows(7)
			if inc.Version() != v {
				t.Fatalf("reseal moved the version: %d -> %d", v, inc.Version())
			}
		}
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
	fresh.SetSegmentRows(7)
	if err := fresh.BulkInsert(all); err != nil {
		t.Fatal(err)
	}

	a, b := inc.Snap(), fresh.Snap()
	verifySnapConsistent(t, a)
	verifySnapConsistent(t, b)
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i, row := range a.Rows() {
		if row.String() != b.Row(i).String() {
			t.Fatalf("row %d diverges: %s vs %s", i, row, b.Row(i))
		}
	}
	for _, col := range []string{"id", "score", "tag"} {
		sa, _ := a.Stats(col)
		sb, _ := b.Stats(col)
		if sa != sb {
			t.Errorf("stats for %s diverge: incremental %+v, fresh %+v", col, sa, sb)
		}
	}
	sa, sb := a.Segments(), b.Segments()
	if len(sa.Segs) != len(sb.Segs) {
		t.Fatalf("segment counts diverge: %d vs %d", len(sa.Segs), len(sb.Segs))
	}
	for i := range sa.Segs {
		if sa.Start[i] != sb.Start[i] || sa.Segs[i].Sealed != sb.Segs[i].Sealed {
			t.Fatalf("segment %d diverges: start %d/%d sealed %v/%v",
				i, sa.Start[i], sb.Start[i], sa.Segs[i].Sealed, sb.Segs[i].Sealed)
		}
	}
}

// TestResealKeepsVersion: a reseal republishes the same data — the
// per-table version (the answer cache's invalidation token) must not
// move, while row writes must move it.
func TestResealKeepsVersion(t *testing.T) {
	db := snapTestDB(t)
	tab := db.Table("m")
	if err := tab.Insert(Int(1), Float(1), Text("a")); err != nil {
		t.Fatal(err)
	}
	v := tab.Version()
	tab.SetSegmentRows(2)
	tab.SetSegmentRows(0)
	if tab.Version() != v {
		t.Errorf("reseal moved the version: %d -> %d", v, tab.Version())
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
