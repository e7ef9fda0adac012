package sql_test

import (
	"fmt"
	"testing"

	"repro/internal/sql"
	"repro/internal/store"
)

func TestParameterizeLiftsConstants(t *testing.T) {
	stmt := sql.MustParse("SELECT name FROM students WHERE gpa > 3.5 AND year = 2 AND name LIKE 'A%'")
	orig := stmt.String()
	tmpl, params := sql.Parameterize(stmt)

	if got := stmt.String(); got != orig {
		t.Fatalf("Parameterize mutated the input: %s", got)
	}
	if len(params) != 3 {
		t.Fatalf("lifted %d params, want 3: %v", len(params), params)
	}
	wantKinds := []store.Kind{store.KindFloat, store.KindInt, store.KindText}
	for i, k := range wantKinds {
		if params[i].Kind() != k {
			t.Errorf("param %d kind = %v, want %v", i, params[i].Kind(), k)
		}
	}
	want := "SELECT name FROM students WHERE (((gpa > $1) AND (year = $2)) AND name LIKE $3)"
	if tmpl.String() != want {
		t.Errorf("template = %s\nwant %s", tmpl.String(), want)
	}
	if n := sql.NumParams(tmpl); n != 3 {
		t.Errorf("NumParams = %d, want 3", n)
	}
}

func TestParameterizeSharedAcrossConstants(t *testing.T) {
	a, pa := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE gpa > 3.5"))
	b, pb := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE gpa > 2.0"))
	if a.String() != b.String() {
		t.Fatalf("templates differ: %s vs %s", a, b)
	}
	if shapeKey(a, pa) != shapeKey(b, pb) {
		t.Error("constant-differing questions should share a shape key")
	}
	// Same template text, different constant kind: distinct shapes.
	c, pc := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE gpa > 3"))
	if shapeKey(a, pa) == shapeKey(c, pc) {
		t.Error("int- and float-constant questions must not share a shape key")
	}
}

func TestParameterizeKeepsNullInline(t *testing.T) {
	tmpl, params := sql.Parameterize(sql.MustParse("SELECT name FROM students WHERE id = NULL AND gpa > 3.0"))
	if len(params) != 1 {
		t.Fatalf("params = %v, want only the gpa bound", params)
	}
	if got := tmpl.String(); got != "SELECT name FROM students WHERE ((id = NULL) AND (gpa > $1))" {
		t.Errorf("template = %s", got)
	}
}

// shapeKey is the plan-cache key a template and the constants lifted
// from it must share with ShapeInto: the template's SQL, '|', and one
// letter per constant kind.
func shapeKey(tmpl *sql.SelectStmt, params []store.Value) string {
	letters := map[store.Kind]string{store.KindInt: "i", store.KindFloat: "f", store.KindText: "t", store.KindBool: "b"}
	key := tmpl.String() + "|"
	for _, v := range params {
		key += letters[v.Kind()]
	}
	return key
}

// shapeQueries span every SQL construct the subset supports.
var shapeQueries = []string{
	"SELECT name FROM students WHERE gpa > 3.5 AND year = 2",
	"SELECT DISTINCT s.name AS who FROM students s, departments d " +
		"WHERE s.dept_id = d.dept_id AND d.name = 'CS' ORDER BY who DESC LIMIT 5",
	"SELECT name FROM students WHERE id BETWEEN 5 AND 40 AND name LIKE 'A%'",
	"SELECT name FROM students WHERE year IN (1, 2, 3) AND gpa IS NOT NULL",
	"SELECT name FROM students WHERE NOT (gpa < 2.0) AND id = NULL",
	"SELECT COUNT(DISTINCT dept_id), AVG(gpa), -(gpa) FROM students WHERE gpa > 1.5 GROUP BY year HAVING COUNT(*) > 3",
	"SELECT name FROM students WHERE dept_id IN (SELECT dept_id FROM departments WHERE budget > 1000000)",
	"SELECT name FROM students WHERE EXISTS " +
		"(SELECT * FROM enrollments WHERE enrollments.student_id = students.id AND grade = 'A')",
	"SELECT name FROM students WHERE gpa > " +
		"(SELECT AVG(gpa) FROM students WHERE year = 1)",
	"SELECT name FROM students WHERE (name LIKE 'A%') IS NULL AND (year IN (1, 2)) = TRUE",
}

// TestShapeAgreesWithParameterize pins the contract between the
// one-pass ShapeInto (the plan-cache key and hit path) and the
// tree-building Parameterize (the miss path's template): the key spells
// Parameterize's template and constant kinds, the constant vectors are
// identical, and the hit path allocates nothing once its scratch has
// grown.
func TestShapeAgreesWithParameterize(t *testing.T) {
	buf, spare := make([]byte, 0, 512), make([]store.Value, 0, 16)
	for _, q := range shapeQueries {
		stmt := sql.MustParse(q)
		key, params := sql.ShapeInto(stmt, buf[:0], spare[:0])
		if msg := shapeAgrees(stmt, key, params); msg != "" {
			t.Errorf("%s: %s", q, msg)
		}
		if n := testing.AllocsPerRun(10, func() { sql.ShapeInto(stmt, buf[:0], spare[:0]) }); n != 0 {
			t.Errorf("ShapeInto allocates %v times into grown scratch for %s", n, q)
		}
	}
}

// shapeAgrees reports how ShapeInto's key and constants for stmt differ
// from Parameterize's, or "" when they agree.
func shapeAgrees(stmt *sql.SelectStmt, key []byte, params []store.Value) string {
	tmpl, wantParams := sql.Parameterize(stmt)
	if want := shapeKey(tmpl, wantParams); string(key) != want {
		return fmt.Sprintf("key mismatch:\n one-pass %s\n two-pass %s", key, want)
	}
	if len(params) != len(wantParams) {
		return fmt.Sprintf("param count mismatch: %d vs %d", len(params), len(wantParams))
	}
	for i := range params {
		if params[i].Key() != wantParams[i].Key() {
			return fmt.Sprintf("param %d mismatch: %v vs %v", i, params[i], wantParams[i])
		}
	}
	return ""
}

func TestParameterizeNumbersSubqueriesGlobally(t *testing.T) {
	tmpl, params := sql.Parameterize(sql.MustParse(
		"SELECT name FROM students WHERE gpa > 3.0 AND dept_id IN " +
			"(SELECT dept_id FROM departments WHERE name = 'CS') AND year = 4"))
	if len(params) != 3 {
		t.Fatalf("lifted %d params, want 3: %v", len(params), params)
	}
	if params[1].Str() != "CS" {
		t.Errorf("subquery literal lifted out of order: %v", params)
	}
	if n := sql.NumParams(tmpl); n != 3 {
		t.Errorf("NumParams = %d, want 3", n)
	}
	// Tables must surface subquery reads for cache dependency sets.
	tabs := sql.Tables(tmpl)
	if len(tabs) != 2 || tabs[0] != "departments" || tabs[1] != "students" {
		t.Errorf("Tables = %v", tabs)
	}
}
