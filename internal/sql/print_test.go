package sql_test

import (
	"reflect"
	"testing"

	"repro/internal/sql"
)

// roundTripQueries include the statements whose predicate operands
// used to print without parentheses: each pair printed alike and
// neither print re-parsed.
var roundTripQueries = []string{
	"SELECT * FROM students",
	"SELECT name FROM students WHERE (gpa > 3.5)",
	"SELECT DISTINCT d.name FROM departments d",
	"SELECT COUNT(*) FROM students WHERE (dept_id = 2)",
	"SELECT d.name, AVG(i.salary) FROM instructors i, departments d WHERE ((i.dept_id = d.dept_id) AND (i.salary > 50000)) GROUP BY d.name HAVING (AVG(i.salary) >= 60000) ORDER BY AVG(i.salary) DESC LIMIT 5",
	"SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments)",
	"SELECT name FROM t WHERE salary > (SELECT AVG(salary) FROM t)",
	"SELECT name FROM t WHERE name LIKE 'A%'",
	"SELECT name FROM t WHERE a BETWEEN 1 AND 10",
	"SELECT name FROM t WHERE b IS NOT NULL",
	"SELECT name FROM t WHERE name = 'O''Brien'",
	"SELECT COUNT(DISTINCT dept_id) FROM instructors",
	"SELECT a FROM t WHERE (x LIKE 'p') IS NULL",
	"SELECT a FROM t WHERE x LIKE ('p' IS NULL)",
	"SELECT a FROM t WHERE (x BETWEEN 1 AND 2) IS NULL",
	"SELECT a FROM t WHERE x BETWEEN 1 AND (2 IS NULL)",
	"SELECT a FROM t WHERE (x IN (1, 2)) = TRUE",
	"SELECT -(x LIKE 'p') FROM t",
	"SELECT a FROM t WHERE (EXISTS (SELECT * FROM u)) = FALSE",
}

// TestPrintRoundTrip pins that the canonical print is injective: it
// re-parses to a tree deeply equal to the one printed.
func TestPrintRoundTrip(t *testing.T) {
	for _, q := range roundTripQueries {
		s1, err := sql.Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		if msg := roundTrips(s1); msg != "" {
			t.Errorf("%s: %s", q, msg)
		}
	}
}

// roundTrips reports how stmt's print fails to re-parse to stmt, or ""
// when it does.
func roundTrips(stmt *sql.SelectStmt) string {
	printed := stmt.String()
	again, err := sql.Parse(printed)
	if err != nil {
		return "reparse of " + printed + " failed: " + err.Error()
	}
	if !reflect.DeepEqual(stmt, again) {
		return "reparse of " + printed + " is a different tree, printed " + again.String()
	}
	return ""
}

// FuzzSQLRoundTrip: Parse never panics, whatever it accepts prints to
// SQL that re-parses to an equal tree, and the one-pass shape agrees
// with Parameterize.
func FuzzSQLRoundTrip(f *testing.F) {
	for _, q := range append(roundTripQueries, shapeQueries...) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return
		}
		if msg := roundTrips(stmt); msg != "" {
			t.Fatalf("%q: %s", src, msg)
		}
		key, params := sql.ShapeInto(stmt, nil, nil)
		if msg := shapeAgrees(stmt, key, params); msg != "" {
			t.Fatalf("%q: %s", src, msg)
		}
	})
}
