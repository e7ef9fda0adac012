package store

import (
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() || Int(1).IsNull() {
		t.Error("IsNull wrong")
	}
	if Int(7).Int64() != 7 {
		t.Error("Int64 wrong")
	}
	if Text("hi").Str() != "hi" {
		t.Error("Str wrong")
	}
	if !Bool(true).BoolVal() {
		t.Error("BoolVal wrong")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("AsFloat(int) wrong")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("AsFloat(float) wrong")
	}
	if _, ok := Text("x").AsFloat(); ok {
		t.Error("AsFloat(text) should fail")
	}
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() || Text("1").IsNumeric() {
		t.Error("IsNumeric wrong")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"42":    Int(42),
		"2.5":   Float(2.5),
		"3.0":   Float(3),
		"hello": Text("hello"),
		"true":  Bool(true),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind(), got, want)
		}
	}
}

func TestValueKeyNumericEquivalence(t *testing.T) {
	if Int(1).Key() != Float(1).Key() {
		t.Error("1 and 1.0 should share a hash key")
	}
	if Int(1).Key() == Int(2).Key() {
		t.Error("distinct ints share key")
	}
	if Text("1").Key() == Int(1).Key() {
		t.Error("text and int must not collide")
	}
	if Null().Key() == Text("").Key() {
		t.Error("null and empty string must not collide")
	}
	if Bool(true).Key() == Bool(false).Key() {
		t.Error("bools collide")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Int(3), Float(3), 0},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("a"), 1},
		{Text("a"), Text("a"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Int(1), Text("1"), -1}, // numerics order before text
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareProperties(t *testing.T) {
	antisym := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	textTotal := func(a, b string) bool {
		c := Compare(Text(a), Text(b))
		return c >= -1 && c <= 1 && (c == 0) == (a == b)
	}
	if err := quick.Check(textTotal, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false")
	}
	if Equal(Null(), Int(1)) || Equal(Int(1), Null()) {
		t.Error("NULL = x must be false")
	}
	if !Equal(Int(1), Float(1)) {
		t.Error("1 = 1.0 must be true")
	}
	if Equal(Text("a"), Text("b")) {
		t.Error("a = b must be false")
	}
}

func TestParseLiteral(t *testing.T) {
	if ParseLiteral("null").Kind() != KindNull {
		t.Error("null")
	}
	if v := ParseLiteral("42"); v.Kind() != KindInt || v.Int64() != 42 {
		t.Error("int")
	}
	if v := ParseLiteral("2.5"); v.Kind() != KindFloat {
		t.Error("float")
	}
	if v := ParseLiteral("true"); v.Kind() != KindBool || !v.BoolVal() {
		t.Error("bool")
	}
	if v := ParseLiteral("hello"); v.Kind() != KindText || v.Str() != "hello" {
		t.Error("text")
	}
}

func miniSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("mini", []*schema.Table{
		{Name: "people", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "name", Type: schema.Text, NameLike: true},
			{Name: "score", Type: schema.Float},
		}},
		{Name: "pets", Columns: []schema.Column{
			{Name: "owner_id", Type: schema.Int},
			{Name: "species", Type: schema.Text},
		}},
	}, []schema.ForeignKey{
		{Table: "pets", Column: "owner_id", RefTable: "people", RefColumn: "id"},
	})
}

func TestInsertAndRead(t *testing.T) {
	db := NewDB(miniSchema(t))
	if err := db.Insert("people", Int(1), Text("Ada"), Float(9.5)); err != nil {
		t.Fatal(err)
	}
	// INT widens into FLOAT columns.
	if err := db.Insert("people", Int(2), Text("Bob"), Int(7)); err != nil {
		t.Fatal(err)
	}
	// NULL allowed anywhere.
	if err := db.Insert("people", Int(3), Null(), Null()); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("people")
	snap := tab.Snap()
	if snap.Len() != 3 {
		t.Fatalf("Len = %d", snap.Len())
	}
	if got := rowAt(t, snap, 1)[2]; got.Kind() != KindFloat {
		t.Errorf("widened value kind = %v", got.Kind())
	}
	if tab.ColIndex("score") != 2 || tab.ColIndex("missing") != -1 {
		t.Error("ColIndex wrong")
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewDB(miniSchema(t))
	if err := db.Insert("people", Int(1)); err == nil {
		t.Error("arity error expected")
	}
	if err := db.Insert("people", Text("x"), Text("Ada"), Float(1)); err == nil {
		t.Error("type error expected")
	}
	if err := db.Insert("people", Int(1), Int(2), Float(1)); err == nil {
		t.Error("int into text should fail")
	}
	if err := db.Insert("nosuch", Int(1)); err == nil {
		t.Error("unknown table error expected")
	}
	if db.Table("people").Snap().Len() != 0 {
		t.Error("failed inserts must not leave rows behind")
	}
}

func TestMustInsertPanics(t *testing.T) {
	db := NewDB(miniSchema(t))
	defer func() {
		if recover() == nil {
			t.Error("MustInsert should panic")
		}
	}()
	db.MustInsert("people", Int(1))
}

func TestRowCloneAndString(t *testing.T) {
	r := Row{Int(1), Text("x")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].Int64() != 1 {
		t.Error("Clone aliases the original")
	}
	if r.String() != "(1, x)" {
		t.Errorf("Row.String = %q", r.String())
	}
	if s := FormatRows([]Row{r, c}); s != "(1, x)\n(2, x)" {
		t.Errorf("FormatRows = %q", s)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := schema.MustNew("b", []*schema.Table{
		{Name: "t", Columns: []schema.Column{
			{Name: "a", Type: schema.Int},
			{Name: "b", Type: schema.Float},
			{Name: "c", Type: schema.Text},
		}},
	}, nil)
	db := NewDB(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustInsert("t", Int(int64(i)), Float(1.5), Text("row"))
	}
}

// TestDataVersion: a table's version stays put across reads, moves on
// an insert into that table and stays put on an insert into another —
// the per-table contract the answer cache keys on (DB.TableVersion).
func TestDataVersion(t *testing.T) {
	db := NewDB(miniSchema(t))
	v0 := db.TableVersion("people")
	if again := db.TableVersion("people"); again != v0 {
		t.Errorf("version moved without mutation: %d -> %d", v0, again)
	}
	if err := db.Insert("people", Int(1), Text("Ada"), Float(9.5)); err != nil {
		t.Fatal(err)
	}
	v1 := db.TableVersion("people")
	if v1 == v0 {
		t.Error("version unchanged after insert")
	}
	if err := db.Insert("pets", Int(1), Text("cat")); err != nil {
		t.Fatal(err)
	}
	if got := db.TableVersion("people"); got != v1 {
		t.Errorf("insert into another table moved the version: %d -> %d", v1, got)
	}
	if db.TotalRows() != 2 {
		t.Errorf("TotalRows = %d, want 2", db.TotalRows())
	}
}

// rowAt decodes row i of a snapshot.
func rowAt(t testing.TB, s *TableSnap, i int) Row {
	t.Helper()
	return s.Rows()[i]
}
