package dataset

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

func TestByName(t *testing.T) {
	for _, name := range Names() {
		db, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if db.TotalRows() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestUniversityShape(t *testing.T) {
	db := University(1)
	counts := map[string]int{
		"departments": 6,
		"instructors": 24,
		"students":    120,
		"courses":     36,
		"enrollments": 360,
	}
	for tab, want := range counts {
		if got := db.Table(tab).Len(); got != want {
			t.Errorf("%s rows = %d, want %d", tab, got, want)
		}
	}
}

func TestUniversityScaleGrowsLinearly(t *testing.T) {
	one := University(1)
	four := University(4)
	if four.Table("students").Len() != 4*one.Table("students").Len() {
		t.Errorf("students: %d vs %d", four.Table("students").Len(), one.Table("students").Len())
	}
	if four.Table("enrollments").Len() != 4*one.Table("enrollments").Len() {
		t.Error("enrollments not linear")
	}
	// Negative scale clamps to 1.
	if University(0).Table("students").Len() != one.Table("students").Len() {
		t.Error("scale clamp failed")
	}
}

func TestDeterminism(t *testing.T) {
	a := University(1)
	b := University(1)
	ta, tb := a.Table("instructors"), b.Table("instructors")
	if ta.Len() != tb.Len() {
		t.Fatal("row counts differ between runs")
	}
	for i := 0; i < ta.Len(); i++ {
		ra, rb := ta.Row(i), tb.Row(i)
		for c := range ra {
			if ra[c].Key() != rb[c].Key() {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, ra[c], rb[c])
			}
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	for _, name := range Names() {
		db, _ := ByName(name, 1)
		for _, fk := range db.Schema.ForeignKeys {
			child := db.Table(fk.Table)
			parent := db.Table(fk.RefTable)
			ci := child.ColIndex(fk.Column)
			if !parent.HasIndex(fk.RefColumn) {
				t.Fatalf("%s: parent index on %s.%s missing", name, fk.RefTable, fk.RefColumn)
			}
			for _, row := range child.Rows() {
				v := row[ci]
				if v.IsNull() {
					continue
				}
				ids, _ := parent.LookupIndex(fk.RefColumn, v)
				if len(ids) == 0 {
					t.Fatalf("%s: dangling FK %v in %s.%s", name, v, fk.Table, fk.Column)
				}
			}
		}
	}
}

func TestGeoFacts(t *testing.T) {
	db := Geo()
	res, err := exec.Query(db.Snapshot(), sql.MustParse(
		"SELECT name FROM countries ORDER BY population DESC LIMIT 1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "China" {
		t.Errorf("most populous = %v", res.Rows[0][0])
	}
	res, err = exec.Query(db.Snapshot(), sql.MustParse(
		"SELECT name FROM rivers ORDER BY length DESC LIMIT 1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "Nile" {
		t.Errorf("longest river = %v", res.Rows[0][0])
	}
	// Every country has exactly one capital city... except those with
	// no city rows at all (none in this dataset).
	res, err = exec.Query(db.Snapshot(), sql.MustParse(
		"SELECT country_id, COUNT(*) FROM cities WHERE capital = TRUE GROUP BY country_id HAVING COUNT(*) <> 1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("countries with capital count != 1: %v", res.Rows)
	}
}

func TestSalesAmountsConsistent(t *testing.T) {
	db := Sales(1)
	// amount = quantity * product price for every line item.
	res, err := exec.Query(db.Snapshot(), sql.MustParse(
		"SELECT COUNT(*) FROM order_items i, products p "+
			"WHERE i.product_id = p.product_id AND i.amount <> i.quantity * p.price"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 0 {
		t.Errorf("%v line items with inconsistent amounts", res.Rows[0][0])
	}
}

func TestUniversityCourseInstructorSameDept(t *testing.T) {
	db := University(2)
	res, err := exec.Query(db.Snapshot(), sql.MustParse(
		"SELECT COUNT(*) FROM courses c, instructors i "+
			"WHERE c.instructor_id = i.id AND c.dept_id <> i.dept_id"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 0 {
		t.Errorf("%v courses taught from another department", res.Rows[0][0])
	}
}

func TestUniversityGPARange(t *testing.T) {
	db := University(1)
	tab := db.Table("students")
	gi := tab.ColIndex("gpa")
	nulls := 0
	for _, row := range tab.Rows() {
		v := row[gi]
		if v.IsNull() {
			nulls++
			continue
		}
		f, _ := v.AsFloat()
		if f < 2.0 || f > 4.0 {
			t.Fatalf("gpa out of range: %v", v)
		}
	}
	if nulls == 0 {
		t.Error("expected some NULL GPAs to exercise NULL handling")
	}
}

func TestPersonNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 900; i++ {
		n := personName(i)
		if seen[n] {
			t.Fatalf("duplicate name %q at %d", n, i)
		}
		seen[n] = true
	}
}

func TestSchemasHaveSynonyms(t *testing.T) {
	schemas := map[string]*schema.Schema{
		"university": UniversitySchema(),
		"geo":        GeoSchema(),
		"sales":      SalesSchema(),
	}
	for name, s := range schemas {
		for _, tab := range s.Tables {
			if len(tab.Synonyms) == 0 {
				t.Errorf("%s.%s has no synonyms", name, tab.Name)
			}
		}
	}
}

func TestScaledDatabasesStayConsistent(t *testing.T) {
	db := Sales(3)
	res, err := exec.Query(db.Snapshot(), sql.MustParse(
		"SELECT COUNT(*) FROM orders o, customers c WHERE o.customer_id = c.customer_id"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int64(); got != int64(db.Table("orders").Len()) {
		t.Errorf("join count %d != order count %d", got, db.Table("orders").Len())
	}
}

// TestEventsDeterministic pins the F11 telemetry generator: exact row
// count, byte-identical regeneration, monotonic clustered timestamps,
// and the cardinalities its encodings rely on.
func TestEventsDeterministic(t *testing.T) {
	const n = 20_000
	a, b := Events(n), Events(n)
	ta, tb := a.Table("events"), b.Table("events")
	if ta.Len() != n || tb.Len() != n {
		t.Fatalf("rows = %d / %d, want %d", ta.Len(), tb.Len(), n)
	}
	ra, rb := ta.Rows(), tb.Rows()
	services := map[string]bool{}
	levels := map[string]bool{}
	prevTS := int64(-1)
	for i := range ra {
		for c := range ra[i] {
			if store.Compare(ra[i][c], rb[i][c]) != 0 {
				t.Fatalf("row %d col %d differs across regenerations: %s vs %s",
					i, c, ra[i][c], rb[i][c])
			}
		}
		if ts := ra[i][1].Int64(); ts < prevTS {
			t.Fatalf("ts not monotonic at row %d: %d < %d", i, ts, prevTS)
		} else {
			prevTS = ts
		}
		services[ra[i][3].Str()] = true
		levels[ra[i][4].Str()] = true
	}
	if len(services) != 24 {
		t.Errorf("service cardinality = %d, want 24", len(services))
	}
	if len(levels) != 4 {
		t.Errorf("level cardinality = %d, want 4", len(levels))
	}
	if db, err := ByName("events", 1); err != nil || db.Table("events").Len() != 100_000 {
		t.Errorf("ByName events: db=%v err=%v", db, err)
	}
}
