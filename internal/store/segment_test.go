package store

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/schema"
)

func segTestTable(t *testing.T) *Table {
	t.Helper()
	meta := &schema.Table{
		Name: "seg",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "clustered", Type: schema.Int},
			{Name: "narrow", Type: schema.Int},
			{Name: "cat", Type: schema.Text},
			{Name: "score", Type: schema.Float},
			{Name: "flag", Type: schema.Bool},
		},
	}
	return NewTable(meta)
}

// segTestRow builds a deterministic row for index i with NULLs at every
// seventh position (covering each column on different rows).
func segTestRow(i int) Row {
	row := Row{
		Int(int64(i)),
		Int(int64(i / 10)),       // clustered: long runs, FOR
		Int(1000 + int64(i%200)), // narrow range: FOR
		Text(fmt.Sprintf("cat-%d", i%5)),
		Float(float64(i) * 0.5),
		Bool(i%2 == 0),
	}
	if i%7 == 3 {
		row[(i/7)%len(row)] = Null()
	}
	return row
}

// segTestRows builds rows 0..n-1 of segTestRow.
func segTestRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = segTestRow(i)
	}
	return rows
}

// sealRows lays rows out at segRows rows per segment in a fresh
// one-column-per-meta-column table and returns its segments.
func sealRows(t *testing.T, meta *schema.Table, rows []Row, segRows int) *SegSet {
	t.Helper()
	tab := NewTable(meta)
	tab.SetSegmentRows(segRows)
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return tab.Snap().Segments()
}

// TestSegmentRoundtrip drives every encoding through boundary-hostile
// segment sizes and row counts (not multiples of 64 or 1024, single-row
// tails) and checks cell-exact equality against the rows inserted.
func TestSegmentRoundtrip(t *testing.T) {
	for _, segRows := range []int{1, 7, 100, 1000, DefaultSegmentRows} {
		for _, n := range []int{0, 1, 6, 7, 8, 63, 64, 65, 100, 101, 999, 1000, 1001, 1023, 1024, 1025, 4097} {
			tab := segTestTable(t)
			tab.SetSegmentRows(segRows)
			rows := segTestRows(n)
			if err := tab.BulkInsert(rows); err != nil {
				t.Fatal(err)
			}
			checkSegSet(t, tab.Snap(), rows, fmt.Sprintf("segRows=%d n=%d", segRows, n))
		}
	}
}

// TestSegmentIncrementalPublish appends in odd-sized batches and checks
// the extended layout equals a from-scratch build, with the sealed
// prefix shared by pointer across versions.
func TestSegmentIncrementalPublish(t *testing.T) {
	tab := segTestTable(t)
	tab.SetSegmentRows(100)
	next := 0
	add := func(k int) {
		if err := tab.BulkInsert(segTestRows(next + k)[next:]); err != nil {
			t.Fatal(err)
		}
		next += k
	}

	add(37)
	prev := tab.Snap().Segments()
	for _, k := range []int{1, 62, 1, 250, 99, 3} {
		add(k)
		cur := tab.Snap().Segments()
		if cur.N != next {
			t.Fatalf("after +%d: segset covers %d rows, want %d", k, cur.N, next)
		}
		// Sealed segments from the previous version must be shared, not
		// re-encoded.
		for i, seg := range prev.Segs {
			if seg.Sealed && cur.Segs[i] != seg {
				t.Fatalf("after +%d: sealed segment %d was rebuilt", k, i)
			}
		}
		checkSegSet(t, tab.Snap(), segTestRows(next), fmt.Sprintf("after +%d", k))
		prev = cur
	}

	// The final incremental layout must match a from-scratch encode.
	scratch := sealRows(t, tab.Meta, segTestRows(next), 100)
	if len(scratch.Segs) != len(prev.Segs) {
		t.Fatalf("incremental has %d segments, scratch %d", len(prev.Segs), len(scratch.Segs))
	}
	for i := range scratch.Segs {
		if scratch.Segs[i].N != prev.Segs[i].N || scratch.Segs[i].Sealed != prev.Segs[i].Sealed {
			t.Fatalf("segment %d shape differs: incremental (%d,%v) scratch (%d,%v)",
				i, prev.Segs[i].N, prev.Segs[i].Sealed, scratch.Segs[i].N, scratch.Segs[i].Sealed)
		}
	}
}

// checkSegSet verifies a snapshot's segment layout cell-for-cell
// against the rows written to it, plus structural invariants: seal
// boundaries, Start offsets, Locate, zone maps, null masks, decoders
// and the row materializer.
func checkSegSet(t *testing.T, s *TableSnap, rows []Row, ctx string) {
	t.Helper()
	ss := s.Segments()
	if ss.N != len(rows) || s.Len() != len(rows) {
		t.Fatalf("%s: segset N=%d, Len=%d, want %d", ctx, ss.N, s.Len(), len(rows))
	}
	for i, row := range s.Rows() {
		for ci, v := range row {
			if want := rows[i][ci]; Compare(v, want) != 0 || v.Kind() != want.Kind() {
				t.Fatalf("%s: Rows()[%d][%d] = %v, want %v", ctx, i, ci, v, want)
			}
		}
	}
	segRows := s.d.segRows
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	start := 0
	for si, seg := range ss.Segs {
		if ss.Start[si] != start {
			t.Fatalf("%s: segment %d Start=%d, want %d", ctx, si, ss.Start[si], start)
		}
		if seg.Sealed && seg.N != segRows {
			t.Fatalf("%s: sealed segment %d has %d rows, want %d", ctx, si, seg.N, segRows)
		}
		if !seg.Sealed && si != len(ss.Segs)-1 {
			t.Fatalf("%s: unsealed segment %d is not the tail", ctx, si)
		}
		for ci, sc := range seg.Cols() {
			if sc.N != seg.N {
				t.Fatalf("%s: segment %d col %d N=%d, want %d", ctx, si, ci, sc.N, seg.N)
			}
			zoneNulls := 0
			var zmin, zmax Value
			for i := 0; i < seg.N; i++ {
				want := rows[start+i][ci]
				if got := sc.Value(i); Compare(got, want) != 0 || got.Kind() != want.Kind() {
					t.Fatalf("%s: segment %d (%s) col %d row %d: got %v, want %v",
						ctx, si, sc.Enc, ci, i, got, want)
				}
				if sc.IsNull(i) != want.IsNull() {
					t.Fatalf("%s: segment %d col %d row %d: IsNull=%v, want %v",
						ctx, si, ci, i, sc.IsNull(i), want.IsNull())
				}
				if want.IsNull() {
					zoneNulls++
					continue
				}
				if zmin.IsNull() || Compare(want, zmin) < 0 {
					zmin = want
				}
				if zmax.IsNull() || Compare(want, zmax) > 0 {
					zmax = want
				}
			}
			if sc.Zone.Rows != seg.N || sc.Zone.Nulls != zoneNulls {
				t.Fatalf("%s: segment %d col %d zone rows/nulls=(%d,%d), want (%d,%d)",
					ctx, si, ci, sc.Zone.Rows, sc.Zone.Nulls, seg.N, zoneNulls)
			}
			if !sc.Zone.Min.IsNull() && Compare(sc.Zone.Min, zmin) != 0 {
				t.Fatalf("%s: segment %d col %d zone min=%v, want %v", ctx, si, ci, sc.Zone.Min, zmin)
			}
			if !sc.Zone.Max.IsNull() && Compare(sc.Zone.Max, zmax) != 0 {
				t.Fatalf("%s: segment %d col %d zone max=%v, want %v", ctx, si, ci, sc.Zone.Max, zmax)
			}
			if !zmin.IsNull() && zmin.Kind() != KindFloat && sc.Zone.Min.IsNull() {
				t.Fatalf("%s: segment %d col %d zone min missing (have non-null values)", ctx, si, ci)
			}
			checkSegColWindows(t, sc, rows, start, ci, ctx)
		}
		start += seg.N
	}
	// Locate must invert the Start offsets for every row.
	for r := 0; r < ss.N; r++ {
		si, off := ss.Locate(r)
		if ss.Start[si]+off != r || off < 0 || off >= ss.Segs[si].N {
			t.Fatalf("%s: Locate(%d) = (%d,%d), Start=%v", ctx, r, si, off, ss.Start)
		}
	}
}

// checkSegColWindows exercises the range decoders (DecodeInts,
// NullMask) over sub-segment windows, including 1-row and full-segment
// windows straddling word boundaries.
func checkSegColWindows(t *testing.T, sc *SegCol, rows []Row, base, ci int, ctx string) {
	t.Helper()
	windows := [][2]int{{0, sc.N}}
	if sc.N > 1 {
		windows = append(windows, [2]int{0, 1}, [2]int{sc.N - 1, sc.N}, [2]int{sc.N / 2, sc.N/2 + 1})
	}
	if sc.N > 65 {
		windows = append(windows, [2]int{63, 65}, [2]int{1, 64})
	}
	var ibuf []int64
	var mbuf []bool // reused like ibuf, and left dirty: a mask must overwrite all of its window
	for _, w := range windows {
		lo, hi := w[0], w[1]
		mask := sc.NullMask(lo, hi, mbuf)
		for i := lo; i < hi; i++ {
			wantNull := rows[base+i][ci].IsNull()
			gotNull := mask != nil && mask[i-lo]
			if gotNull != wantNull {
				t.Fatalf("%s: NullMask(%d,%d)[%d]=%v, want %v", ctx, lo, hi, i-lo, gotNull, wantNull)
			}
		}
		if mask != nil {
			mbuf = mask[:cap(mask)]
			for i := range mbuf {
				mbuf[i] = true
			}
		}
		if sc.Kind == KindInt {
			ibuf = sc.DecodeInts(lo, hi, ibuf)
			for i := lo; i < hi; i++ {
				v := rows[base+i][ci]
				if v.IsNull() {
					continue
				}
				if ibuf[i-lo] != v.Int64() {
					t.Fatalf("%s: DecodeInts(%d,%d)[%d]=%d, want %d (enc=%s)",
						ctx, lo, hi, i-lo, ibuf[i-lo], v.Int64(), sc.Enc)
				}
			}
		}
	}
}

// TestSegmentEncodingSelection pins which encodings the sealed encoder
// picks for characteristic shapes.
func TestSegmentEncodingSelection(t *testing.T) {
	n := 1000
	mkRows := func(gen func(i int) Value) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{gen(i)}
		}
		return rows
	}
	cases := []struct {
		name string
		typ  schema.ColType
		gen  func(i int) Value
		want SegEncoding
	}{
		{"sorted-runs-for", schema.Int, func(i int) Value { return Int(int64(i / 50)) }, SegFOR},
		{"narrow-for", schema.Int, func(i int) Value { return Int(int64(1e9) + int64((i*37)%250)) }, SegFOR},
		{"wide-plain", schema.Int, func(i int) Value { return Int(int64(i) * (1 << 33)) }, SegPlain},
		{"lowcard-dict", schema.Text, func(i int) Value { return Text(fmt.Sprintf("s%d", i%20)) }, SegDict},
		{"highcard-plain", schema.Text, func(i int) Value { return Text(fmt.Sprintf("s%d", i)) }, SegPlain},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "c", Type: tc.typ}}}
			ss := sealRows(t, meta, mkRows(tc.gen), n) // one sealed segment
			if len(ss.Segs) != 1 || !ss.Segs[0].Sealed {
				t.Fatalf("want 1 sealed segment, got %d", len(ss.Segs))
			}
			if got := ss.Segs[0].Cols()[0].Enc; got != tc.want {
				t.Fatalf("encoding = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestSegmentNullExtremes covers all-null and no-null segments,
// including the all-null zone-map contract (AllNull true, unknown
// range) and the encoders' behavior when every cell is NULL: each
// column seals plain.
func TestSegmentNullExtremes(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "i", Type: schema.Int},
		{Name: "s", Type: schema.Text},
		{Name: "f", Type: schema.Float},
	}}
	for _, n := range []int{1, 64, 65, 100} {
		allNull := make([]Row, n)
		noNull := make([]Row, n)
		for i := range allNull {
			allNull[i] = Row{Null(), Null(), Null()}
			noNull[i] = Row{Int(int64(i % 3)), Text("x"), Float(1.5)}
		}
		ss := sealRows(t, meta, allNull, n)
		for ci, sc := range ss.Segs[0].Cols() {
			if !sc.Zone.AllNull() {
				t.Fatalf("n=%d col %d: AllNull()=false for all-null segment", n, ci)
			}
			if !sc.Zone.Min.IsNull() || !sc.Zone.Max.IsNull() {
				t.Fatalf("n=%d col %d: all-null zone has bounds", n, ci)
			}
			if sc.Enc != SegPlain {
				t.Fatalf("n=%d col %d: all-null column sealed as %s, want %s", n, ci, sc.Enc, SegPlain)
			}
			for i := 0; i < n; i++ {
				if !sc.IsNull(i) || !sc.Value(i).IsNull() {
					t.Fatalf("n=%d col %d row %d: not NULL", n, ci, i)
				}
			}
		}
		ss = sealRows(t, meta, noNull, n)
		for ci, sc := range ss.Segs[0].Cols() {
			if sc.Zone.Nulls != 0 || sc.Nuls != nil {
				t.Fatalf("n=%d col %d: spurious nulls in no-null segment", n, ci)
			}
			if sc.NullMask(0, n, nil) != nil {
				t.Fatalf("n=%d col %d: NullMask non-nil for no-null segment", n, ci)
			}
		}
	}
}

// TestSegmentNaNZone pins the NaN rule: a float segment containing NaN
// publishes no zone range (never skippable) but still roundtrips, and
// so does a tail a NaN reaches write by write.
func TestSegmentNaNZone(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "f", Type: schema.Float}}}
	rows := []Row{{Float(1)}, {Float(math.NaN())}, {Float(3)}}
	ss := sealRows(t, meta, rows, 3)
	sc := ss.Segs[0].Cols()[0]
	if !sc.Zone.Min.IsNull() || !sc.Zone.Max.IsNull() {
		t.Fatalf("NaN segment published a zone range: [%v,%v]", sc.Zone.Min, sc.Zone.Max)
	}
	if !math.IsNaN(sc.Floats[1]) || sc.Floats[2] != 3 {
		t.Fatalf("NaN segment did not roundtrip: %v", sc.Floats)
	}

	// A NaN reaching the tail in a later write than the first float
	// leaves the tail's zone range unknown for good, as one pass over
	// the same cells would, and sealing keeps it so.
	tab := segTestTable(t)
	tab.SetSegmentRows(5)
	steps := []struct {
		f        float64
		min, max Value
	}{
		{2, Float(2), Float(2)},
		{1, Float(1), Float(2)},
		{math.NaN(), Null(), Null()},
		{3, Null(), Null()},
	}
	for i, st := range steps {
		row := segTestRow(i)
		row[4] = Float(st.f)
		if err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
		z := tab.Snap().Segments().Segs[0].Zones[4]
		if z.Min != st.min || z.Max != st.max {
			t.Fatalf("tail after %d rows: zone [%v, %v], want [%v, %v]", i+1, z.Min, z.Max, st.min, st.max)
		}
	}
	if err := tab.Insert(segTestRow(4)...); err != nil {
		t.Fatal(err)
	}
	if seg := tab.Snap().Segments().Segs[0]; !seg.Sealed || !seg.Zones[4].Min.IsNull() {
		t.Fatalf("sealed NaN segment: sealed %v, zone min %v", seg.Sealed, seg.Zones[4].Min)
	}
}

// TestSegmentDictCodeWidth pins the dictionary at its cap: a 64K-row
// chunk of exactly segDictMaxCard distinct strings seals as a
// dictionary whose largest code, segDictMaxCard-1, reads back its
// string and costs 2 B a row, and one more distinct string seals the
// chunk plain.
func TestSegmentDictCodeWidth(t *testing.T) {
	const n = 1 << 16
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "s", Type: schema.Text}}}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Text(fmt.Sprintf("v%05d", i%segDictMaxCard))}
	}
	ss := sealRows(t, meta, rows, n)
	if len(ss.Segs) != 1 || !ss.Segs[0].Sealed {
		t.Fatalf("want 1 sealed segment, got %d", len(ss.Segs))
	}
	sc := ss.Segs[0].Cols()[0]
	if sc.Enc != SegDict || len(sc.Dict) != segDictMaxCard {
		t.Fatalf("encoding %s with %d entries, want %s with %d", sc.Enc, len(sc.Dict), SegDict, segDictMaxCard)
	}
	top := segDictMaxCard - 1
	for _, i := range []int{top, n - 1} {
		if sc.Codes[i] != uint16(top) {
			t.Fatalf("row %d: code %d, want %d", i, sc.Codes[i], top)
		}
		if got, want := sc.StrAt(i), fmt.Sprintf("v%05d", top); got != want {
			t.Fatalf("StrAt(%d) = %q, want %q", i, got, want)
		}
	}
	want := 2 * n
	for _, s := range sc.Dict {
		want += 16 + len(s)
	}
	if got := sc.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d (2 B a row plus the dictionary)", got, want)
	}

	rows[n-1] = Row{Text("one more")}
	if enc := sealRows(t, meta, rows, n).Segs[0].Cols()[0].Enc; enc != SegPlain {
		t.Fatalf("%d distinct strings sealed as %s, want %s", segDictMaxCard+1, enc, SegPlain)
	}
}

// TestSegmentFORBoundaries pins frame-of-reference at extreme spans:
// a span of 2^16-1 is the widest FOR holds, and wider ones, int64
// min/max pairs included, fall back to plain without overflow.
func TestSegmentFORBoundaries(t *testing.T) {
	meta := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "i", Type: schema.Int}}}
	cases := []struct {
		name string
		vals []int64
		want SegEncoding
	}{
		{"span-255", []int64{100, 355, 200}, SegFOR},
		{"span-256", []int64{100, 356, 200}, SegFOR},
		{"span-65535", []int64{0, 65535, 1}, SegFOR},
		{"span-65536", []int64{0, 65536, 1}, SegPlain},
		{"span-2^32-1", []int64{0, math.MaxUint32, 1}, SegPlain},
		{"span-2^32", []int64{0, math.MaxUint32 + 1, 1}, SegPlain},
		{"minmax-int64", []int64{math.MinInt64, math.MaxInt64, 0}, SegPlain},
		{"negative-narrow", []int64{-1000, -950, -999}, SegFOR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := make([]Row, len(tc.vals))
			for i, v := range tc.vals {
				rows[i] = Row{Int(v)}
			}
			ss := sealRows(t, meta, rows, len(rows))
			sc := ss.Segs[0].Cols()[0]
			if sc.Enc != tc.want {
				t.Fatalf("encoding = %s, want %s", sc.Enc, tc.want)
			}
			for i, v := range tc.vals {
				if got := sc.IntAt(i); got != v {
					t.Fatalf("IntAt(%d) = %d, want %d", i, got, v)
				}
			}
		})
	}
}

// TestSegmentBytesCompresses sanity-checks the compression accounting:
// a clustered low-cardinality table must be much smaller sealed than
// the same rows resealed as one plain segment.
func TestSegmentBytesCompresses(t *testing.T) {
	tab := segTestTable(t)
	tab.SetSegmentRows(1024)
	rows := segTestRows(8192)
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	segBytes := tab.Snap().Segments().Bytes()
	tab.SetSegmentRows(len(rows) + 1)
	plain := tab.Snap().Segments()
	if len(plain.Segs) != 1 || plain.Segs[0].Sealed {
		t.Fatalf("a seal boundary past the last row left %d segments", len(plain.Segs))
	}
	if plainBytes := plain.Bytes(); segBytes*2 > plainBytes {
		t.Fatalf("sealed %d bytes vs plain %d bytes: expected ≥2× compression", segBytes, plainBytes)
	}
}
