package store

import (
	"strings"
	"testing"

	"repro/internal/schema"
)

func colTestDB(t *testing.T) *DB {
	t.Helper()
	s := schema.MustNew("t", []*schema.Table{{
		Name:       "m",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "score", Type: schema.Float},
			{Name: "name", Type: schema.Text},
			{Name: "flag", Type: schema.Bool},
		},
	}}, nil)
	return NewDB(s)
}

// TestSegColsRoundTrip: the columnar layout — the segment columns —
// must hold exactly the row values, including INT→FLOAT coercion
// widening into FLOAT columns and NULLs in the bitmap, and box them
// back unchanged.
func TestSegColsRoundTrip(t *testing.T) {
	db := colTestDB(t)
	tab := db.Table("m")
	rows := []Row{
		{Int(1), Int(2), Text("a"), Bool(true)}, // INT 2 widens to FLOAT 2.0
		{Int(2), Float(3.5), Null(), Bool(false)},
		{Int(3), Null(), Text("c"), Null()},
	}
	for _, r := range rows {
		if err := tab.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	snap := tab.Snap()
	ss := snap.Segments()
	if len(ss.Segs) != 1 || ss.Segs[0].Sealed {
		t.Fatalf("3 rows laid out as %d segments (first sealed=%v), want one plain tail", len(ss.Segs), ss.Segs[0].Sealed)
	}
	cols := ss.Segs[0].Cols()
	if cols[1].Kind != KindFloat {
		t.Fatalf("score column kind = %v, want FLOAT", cols[1].Kind)
	}
	if got := cols[1].Floats[0]; got != 2.0 {
		t.Errorf("widened INT stored as %v, want 2.0", got)
	}
	for ri := range rows {
		for ci := range cols {
			want := rowAt(t, snap, ri)[ci]
			got := cols[ci].Value(ri)
			if want.Key() != got.Key() {
				t.Errorf("row %d col %d: column holds %v, row holds %v", ri, ci, got, want)
			}
		}
	}
	if !cols[2].IsNull(1) || cols[2].IsNull(0) {
		t.Error("text null bitmap wrong")
	}

	// The layout is the version's own until a mutation, then extended.
	if tab.Snap().Segments() != ss {
		t.Error("Segments differ across calls at one version")
	}
	if err := tab.Insert(Int(4), Float(1), Text("d"), Bool(true)); err != nil {
		t.Fatal(err)
	}
	if fresh := tab.Snap().Segments(); fresh.N != 4 {
		t.Errorf("extended layout has %d rows, want 4", fresh.N)
	}
}

// TestBulkInsertMatchesInsert: the bulk path must produce the same
// table state (rows, indexes, stats, lookups) as per-row Insert, while
// rebuilding pre-existing indexes once.
func TestBulkInsertMatchesInsert(t *testing.T) {
	mk := func() (*DB, *Table) {
		db := colTestDB(t)
		return db, db.Table("m")
	}
	rows := make([]Row, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, Row{Int(int64(i)), Float(float64(i % 7)), Text("n" + strings.Repeat("x", i%3)), Bool(i%2 == 0)})
	}

	_, a := mk()
	if err := a.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}

	_, b := mk()
	for _, r := range rows {
		if err := b.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}

	sa, sb := a.Snap(), b.Snap()
	if sa.Len() != sb.Len() {
		t.Fatalf("row counts differ: %d vs %d", sa.Len(), sb.Len())
	}
	for i := 0; i < sa.Len(); i++ {
		if rowAt(t, sa, i).String() != rowAt(t, sb, i).String() {
			t.Errorf("row %d differs: %s vs %s", i, rowAt(t, sa, i), rowAt(t, sb, i))
		}
	}
	if a.Version() == 0 {
		t.Error("BulkInsert did not bump the data version")
	}
}

// TestBulkInsertValidates: arity and type errors must reject exactly
// like Insert, and a mid-batch error must leave the table unchanged —
// no orphan rows, no version bump (cached columnar snapshots and the
// answer cache both key off the version).
func TestBulkInsertValidates(t *testing.T) {
	db := colTestDB(t)
	tab := db.Table("m")
	if err := tab.BulkInsert([]Row{{Int(1)}}); err == nil {
		t.Error("arity error not caught")
	}
	if err := tab.BulkInsert([]Row{{Text("x"), Float(1), Text("a"), Bool(true)}}); err == nil {
		t.Error("type error not caught")
	}
	if err := tab.BulkInsert(nil); err != nil {
		t.Errorf("empty bulk insert: %v", err)
	}
	// Atomicity: a valid row followed by a bad one inserts nothing.
	before := tab.Version()
	err := tab.BulkInsert([]Row{
		{Int(1), Float(1), Text("ok"), Bool(true)},
		{Int(2)},
	})
	if err == nil {
		t.Fatal("mixed batch error not caught")
	}
	if tab.Snap().Len() != 0 {
		t.Errorf("failed bulk insert left %d rows behind", tab.Snap().Len())
	}
	if tab.Version() != before {
		t.Error("failed bulk insert bumped the data version")
	}
}

// TestBitmap covers the null-bitmap primitive.
func TestBitmap(t *testing.T) {
	b := make(Bitmap, 3) // 130 bits
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unexpected bit set")
	}
	if !b.AnyRange(60, 70) || b.AnyRange(65, 129) {
		t.Error("AnyRange wrong")
	}
	var nilMap Bitmap
	if nilMap.Get(5) || nilMap.AnyRange(0, 100) {
		t.Error("nil bitmap should be all-clear")
	}
}
