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

// verifySnapConsistent asserts that the segment layout reachable from
// one pinned snapshot describes exactly the rows written before it was
// pinned. This is the snapshot-semantics property the planner and both
// executors rely on.
func verifySnapConsistent(t *testing.T, snap *TableSnap, rows []Row) {
	t.Helper()
	checkSegSet(t, snap, rows, "pinned snapshot")
}

// TestSnapshotPinnedUnderWrites is the snapshot-semantics property
// test: snapshots pinned between arbitrary interleaved writes (single
// inserts, bulk batches, reseals) stay frozen — their length, rows
// and segments all keep describing the pinned instant after
// any number of later writes to the live table. The seal boundary is
// small so the writes cross seals and the tail's in-place appends.
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

	var model []Row
	pin()
	for step := 0; step < 60; step++ {
		switch r.Intn(5) {
		case 0:
			row := randRow(r, len(model))
			model = append(model, row)
			if err := tab.Insert(row...); err != nil {
				t.Fatal(err)
			}
		case 1:
			batch := make([]Row, 1+r.Intn(20))
			for i := range batch {
				batch[i] = randRow(r, len(model)+i)
			}
			model = append(model, batch...)
			if err := tab.BulkInsert(batch); err != nil {
				t.Fatal(err)
			}
		case 2, 3:
			// Reseal: the same rows republished under another seal
			// boundary, at the same version.
			tab.SetSegmentRows(3 + r.Intn(5))
		case 4:
			// No write: the step at most pins the current version.
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
		verifySnapConsistent(t, p.snap, model[:p.len])
	}
}

// TestIncrementalMaintenanceEquivalence: a table whose segments were
// maintained incrementally across many bulk inserts, and
// resealed part way through, must be indistinguishable from one loaded
// in a single batch — the correctness contract of the tail's in-place
// appends.
func TestIncrementalMaintenanceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var all []Row
	next := 0

	inc := snapTestDB(t).Table("m")
	inc.SetSegmentRows(7)
	for round := 0; round < 8; round++ {
		if round == 4 {
			// A reseal republishes the same version, so the rounds after
			// it extend a layout built from the decoded rows.
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
	verifySnapConsistent(t, a, all)
	verifySnapConsistent(t, b, all)
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
