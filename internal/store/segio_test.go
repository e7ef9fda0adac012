package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
)

// sameSegCols fails the test unless got is semantically identical to
// want: same shape, encoding, zone map, null bitmap and cell values.
func sameSegCols(t *testing.T, ctx string, want, got []*SegCol, n int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d columns, want %d", ctx, len(got), len(want))
	}
	for ci := range want {
		w, g := want[ci], got[ci]
		if g.Kind != w.Kind || g.Enc != w.Enc || g.N != w.N {
			t.Fatalf("%s col %d: shape (%v,%v,%d), want (%v,%v,%d)",
				ctx, ci, g.Kind, g.Enc, g.N, w.Kind, w.Enc, w.N)
		}
		if Compare(g.Zone.Min, w.Zone.Min) != 0 || g.Zone.Min.Kind() != w.Zone.Min.Kind() ||
			Compare(g.Zone.Max, w.Zone.Max) != 0 || g.Zone.Max.Kind() != w.Zone.Max.Kind() ||
			g.Zone.Nulls != w.Zone.Nulls || g.Zone.Rows != w.Zone.Rows {
			t.Fatalf("%s col %d: zone %+v, want %+v", ctx, ci, g.Zone, w.Zone)
		}
		if (g.Nuls == nil) != (w.Nuls == nil) {
			t.Fatalf("%s col %d: bitmap presence %v, want %v", ctx, ci, g.Nuls != nil, w.Nuls != nil)
		}
		for i := 0; i < n; i++ {
			if g.IsNull(i) != w.IsNull(i) {
				t.Fatalf("%s col %d row %d: IsNull=%v, want %v", ctx, ci, i, g.IsNull(i), w.IsNull(i))
			}
			gv, wv := g.Value(i), w.Value(i)
			if gv.Kind() != wv.Kind() || Compare(gv, wv) != 0 {
				t.Fatalf("%s col %d row %d: %v, want %v", ctx, ci, i, gv, wv)
			}
			// NaN compares unequal to itself through Compare's total
			// order trick; pin the bit pattern directly for floats.
			if w.Kind == KindFloat && !w.IsNull(i) {
				if math.Float64bits(g.Floats[i]) != math.Float64bits(w.Floats[i]) {
					t.Fatalf("%s col %d row %d: float bits %x, want %x",
						ctx, ci, i, math.Float64bits(g.Floats[i]), math.Float64bits(w.Floats[i]))
				}
			}
		}
	}
}

// codecFixtures builds segments covering all four encodings plus the
// awkward zone shapes: scattered NULLs, all-NULL columns, NaN-poisoned
// floats, negative and 64-bit-span ints, empty and duplicate strings.
func codecFixtures(t *testing.T) map[string]*Segment {
	t.Helper()
	out := map[string]*Segment{}

	// The standard mixed table: dict/RLE/FOR/plain all appear.
	tab := segTestTable(t)
	tab.SetSegmentRows(256)
	rows := make([]Row, 600)
	for i := range rows {
		rows[i] = segTestRow(i)
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	ss := tab.Snap().Segments()
	for i, seg := range ss.Segs {
		out[fmt.Sprintf("mixed-%d-sealed=%v", i, seg.Sealed)] = seg
	}

	// Hostile shapes, one table per case.
	mk := func(name string, cols []schema.Column, rows []Row, segRows int) {
		tb := NewTable(&schema.Table{Name: name, Columns: cols})
		tb.SetSegmentRows(segRows)
		if err := tb.BulkInsert(rows); err != nil {
			t.Fatal(err)
		}
		for i, seg := range tb.Snap().Segments().Segs {
			out[fmt.Sprintf("%s-%d", name, i)] = seg
		}
	}

	allNullRows := make([]Row, 64)
	nanRows := make([]Row, 64)
	extremeRows := make([]Row, 64)
	for i := range allNullRows {
		allNullRows[i] = Row{Null(), Null()}
		f := float64(i)
		if i%5 == 0 {
			f = math.NaN()
		}
		nanRows[i] = Row{Float(f), Float(math.Inf(1))}
		extremeRows[i] = Row{
			Int(math.MinInt64 + int64(i)), // span overflows every FOR width
			Int(-int64(i) / 16),           // negative RLE runs
		}
	}
	mk("allnull",
		[]schema.Column{{Name: "a", Type: schema.Int}, {Name: "b", Type: schema.Text}},
		allNullRows, 64)
	mk("nan",
		[]schema.Column{{Name: "f", Type: schema.Float}, {Name: "inf", Type: schema.Float}},
		nanRows, 64)
	mk("extreme",
		[]schema.Column{{Name: "wide", Type: schema.Int}, {Name: "negrun", Type: schema.Int}},
		extremeRows, 64)
	mk("emptystr",
		[]schema.Column{{Name: "s", Type: schema.Text}},
		[]Row{{Text("")}, {Text("")}, {Text("x")}, {Null()}, {Text("")}}, 4)
	return out
}

// TestSegmentCodecRoundTrip: encode → write → read → decode equals the
// in-memory segment for every encoding and zone shape, byte-for-byte
// stable across a re-encode.
func TestSegmentCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, seg := range codecFixtures(t) {
		cols := seg.MustCols()
		data := EncodeSegment(cols, seg.N, seg.Sealed)

		// In-memory decode.
		dcols, n, sealed, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if n != seg.N || sealed != seg.Sealed {
			t.Fatalf("%s: header (%d,%v), want (%d,%v)", name, n, sealed, seg.N, seg.Sealed)
		}
		sameSegCols(t, name, cols, dcols, seg.N)

		// Through the file layer.
		path := filepath.Join(dir, name+".nlsg")
		if err := WriteSegmentFile(path, cols, seg.N, seg.Sealed); err != nil {
			t.Fatal(err)
		}
		fcols, fn, fsealed, err := ReadSegmentFile(path)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if fn != seg.N || fsealed != seg.Sealed {
			t.Fatalf("%s: file header (%d,%v), want (%d,%v)", name, fn, fsealed, seg.N, seg.Sealed)
		}
		sameSegCols(t, name+" (file)", cols, fcols, seg.N)

		// Deterministic: re-encoding the decoded columns reproduces the
		// bytes exactly — the write-once format never churns.
		if again := EncodeSegment(dcols, n, sealed); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encode differs (%d vs %d bytes)", name, len(again), len(data))
		}
	}
}

// reseal recomputes the CRC footer after a deliberate body mutation, so
// corruption tests exercise the structural validators rather than
// stopping at the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...),
		crc32.Checksum(body, segCRCTable))
}

// TestSegmentDecodeRejectsCorruption: checksum damage, truncation at
// every byte, and resealed structural corruption all fail with an
// error — never a panic, never a silently wrong segment.
func TestSegmentDecodeRejectsCorruption(t *testing.T) {
	tab := segTestTable(t)
	tab.SetSegmentRows(64)
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = segTestRow(i)
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	seg := tab.Snap().Segments().Segs[0]
	data := EncodeSegment(seg.MustCols(), seg.N, seg.Sealed)

	// Every flipped byte is either caught by the checksum, or — for the
	// footer itself — a checksum mismatch against the intact body.
	for off := 0; off < len(data); off += 7 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, _, _, err := DecodeSegment(bad); err == nil {
			t.Fatalf("flip at %d: decode accepted corrupt data", off)
		}
	}

	// Every truncation point fails cleanly.
	for cut := 0; cut < len(data); cut += 3 {
		if _, _, _, err := DecodeSegment(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}

	// Resealed structural damage: the checksum is valid, the validators
	// must catch it (or the mutation must decode to something — but
	// never panic). Target the column headers where kind/enc live.
	for off := segHeaderLen; off < len(data)-4; off += 5 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resealed flip at %d: decode panicked: %v", off, r)
				}
			}()
			_, _, _, _ = DecodeSegment(reseal(bad))
		}()
	}

	// A truncated file read fails cleanly through ReadSegmentFile too.
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.nlsg")
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadSegmentFile(path); err == nil {
		t.Fatal("truncated file read succeeded")
	}
	if _, _, _, err := ReadSegmentFile(filepath.Join(dir, "missing.nlsg")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

// FuzzSegmentCodec: DecodeSegment must never panic, whatever the
// bytes. Two shapes per input: the raw bytes (checksum usually rejects
// them — the cheap path must still be sound), and the bytes resealed
// with a valid CRC so the structural validators face arbitrary input.
func FuzzSegmentCodec(f *testing.F) {
	tab := NewTable(&schema.Table{Name: "z", Columns: []schema.Column{
		{Name: "i", Type: schema.Int},
		{Name: "s", Type: schema.Text},
		{Name: "f", Type: schema.Float},
		{Name: "b", Type: schema.Bool},
	}})
	tab.SetSegmentRows(32)
	rows := make([]Row, 80)
	for i := range rows {
		rows[i] = Row{Int(int64(i / 8)), Text(fmt.Sprintf("v%d", i%4)), Float(float64(i)), Bool(i%2 == 0)}
		if i%9 == 0 {
			rows[i][i%4] = Null()
		}
	}
	if err := tab.BulkInsert(rows); err != nil {
		f.Fatal(err)
	}
	for _, seg := range tab.Snap().Segments().Segs {
		f.Add(EncodeSegment(seg.MustCols(), seg.N, seg.Sealed))
	}
	f.Add([]byte{})
	f.Add(segMagic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		if cols, n, _, err := DecodeSegment(data); err == nil {
			// Whatever decoded must survive re-encoding (internal
			// consistency of an accepted segment).
			_ = EncodeSegment(cols, n, true)
		}
		if len(data) >= segHeaderLen+4 {
			if cols, n, _, err := DecodeSegment(reseal(data)); err == nil {
				_ = EncodeSegment(cols, n, true)
			}
		}
	})
}
