package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestLoadCSVBasic(t *testing.T) {
	db := NewDB(miniSchema(t))
	src := "id,name,score\n1,Ada,9.5\n2,Bob,7\n3,,\n"
	n, err := db.LoadCSV("people", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d rows", n)
	}
	tab := db.Table("people")
	if rowAt(t, tab.Snap(), 0)[1].Str() != "Ada" {
		t.Errorf("row 0 = %v", rowAt(t, tab.Snap(), 0))
	}
	if !rowAt(t, tab.Snap(), 2)[1].IsNull() || !rowAt(t, tab.Snap(), 2)[2].IsNull() {
		t.Errorf("empty cells should be NULL: %v", rowAt(t, tab.Snap(), 2))
	}
	// Int widens into Float column.
	if f, _ := rowAt(t, tab.Snap(), 1)[2].AsFloat(); f != 7 {
		t.Errorf("row 1 score = %v", rowAt(t, tab.Snap(), 1)[2])
	}
}

func TestLoadCSVHeaderReordering(t *testing.T) {
	db := NewDB(miniSchema(t))
	src := "score, name ,id\n3.5,Ada,1\n"
	if _, err := db.LoadCSV("people", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	row := rowAt(t, db.Table("people").Snap(), 0)
	if row[0].Int64() != 1 || row[1].Str() != "Ada" {
		t.Errorf("reordered header misloaded: %v", row)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := NewDB(miniSchema(t))
	cases := map[string]string{
		"unknown column":   "id,name,wrong\n1,A,2\n",
		"duplicate column": "id,id,name\n1,2,A\n",
		"missing column":   "id,name\n1,A\n",
		"bad integer":      "id,name,score\nxyz,A,1\n",
		"bad number":       "id,name,score\n1,A,notnum\n",
	}
	for what, src := range cases {
		if _, err := db.LoadCSV("people", strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", what)
		}
	}
	if _, err := db.LoadCSV("nosuch", strings.NewReader("a\n1\n")); err == nil {
		t.Error("unknown table: expected error")
	}
}

func TestLoadCSVBool(t *testing.T) {
	db2 := NewDB(boolSchema(t))
	src := "id,flag\n1,true\n2,F\n3,yes\n4,0\n"
	if _, err := db2.LoadCSV("flags", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	tab := db2.Table("flags")
	want := []bool{true, false, true, false}
	for i, w := range want {
		if rowAt(t, tab.Snap(), i)[1].BoolVal() != w {
			t.Errorf("row %d = %v, want %v", i, rowAt(t, tab.Snap(), i)[1], w)
		}
	}
	if _, err := db2.LoadCSV("flags", strings.NewReader("id,flag\n1,maybe\n")); err == nil {
		t.Error("bad boolean accepted")
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	db := NewDB(miniSchema(t))
	db.MustInsert("people", Int(1), Text("Ada, the first"), Float(9.5))
	db.MustInsert("people", Int(2), Null(), Null())
	var buf bytes.Buffer
	if err := db.Table("people").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB(miniSchema(t))
	n, err := db2.LoadCSV("people", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("round trip loaded %d rows", n)
	}
	if rowAt(t, db2.Table("people").Snap(), 0)[1].Str() != "Ada, the first" {
		t.Error("comma in value did not round-trip")
	}
	if !rowAt(t, db2.Table("people").Snap(), 1)[1].IsNull() {
		t.Error("NULL did not round-trip")
	}
}

// TestWriteCSVRoundTripExtremes: every cell WriteCSV can be handed
// comes back from LoadCSV as the cell it was — the non-finite floats
// used to be written "NaN.0" / "+Inf.0", which LoadCSV rejects.
func TestWriteCSVRoundTripExtremes(t *testing.T) {
	db := NewDB(miniSchema(t))
	for i, score := range []Value{
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.Copysign(0, -1)), Float(1e21), Float(-1e21),
		Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64), Null(),
	} {
		// Primary keys from both ends of int64, MinInt64 and MaxInt64 first.
		id := math.MinInt64 + int64(i/2)
		if i%2 == 1 {
			id = math.MaxInt64 - int64(i/2)
		}
		db.MustInsert("people", Int(id), Null(), score)
	}
	var buf bytes.Buffer
	if err := db.Table("people").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	db2 := NewDB(miniSchema(t))
	if _, err := db2.LoadCSV("people", &buf); err != nil {
		t.Fatalf("LoadCSV rejected what WriteCSV wrote: %v\n%s", err, written)
	}
	want, got := db.Table("people").Snap().Rows(), db2.Table("people").Snap().Rows()
	if len(got) != len(want) {
		t.Fatalf("round trip loaded %d rows, wrote %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			w, g := want[i][c], got[i][c]
			wf, _ := w.AsFloat()
			gf, _ := g.AsFloat()
			// A NaN's payload is not text; everything else is bit-exact.
			same := w.Kind() == g.Kind() && w.Int64() == g.Int64() &&
				(math.Float64bits(wf) == math.Float64bits(gf) || math.IsNaN(wf) && math.IsNaN(gf))
			if !same {
				t.Errorf("row %d col %d: wrote %v (%s), loaded %v (%s)", i, c, w, w.Kind(), g, g.Kind())
			}
		}
	}
}

func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "people.csv"),
		[]byte("id,name,score\n1,Ada,9.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// pets.csv intentionally missing: must be skipped.
	db := NewDB(miniSchema(t))
	if err := db.LoadCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	if db.Table("people").Snap().Len() != 1 || db.Table("pets").Snap().Len() != 0 {
		t.Errorf("rows: people=%d pets=%d", db.Table("people").Snap().Len(), db.Table("pets").Snap().Len())
	}
}

func boolSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("flagsdb", []*schema.Table{
		{Name: "flags", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "flag", Type: schema.Bool},
		}},
	}, nil)
}
