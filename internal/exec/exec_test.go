package exec

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// fixture builds a small university database:
//
//	departments: (1 CS 200000) (2 Math 150000) (3 History 90000)
//	instructors: (1 Curie CS 95000) (2 Turing CS 87000)
//	             (3 Gauss Math 72000) (4 Herodotus History 61000)
//	students:    (1 Ada CS 3.9) (2 Bob CS 2.8) (3 Cleo Math 3.4)
//	             (4 Dan Math 3.4) (5 Eve History NULL)
//	courses:     (1 Algorithms CS) (2 Calculus Math) (3 Ancient Greece History)
//	enrollments: Ada->Algorithms A, Ada->Calculus B, Bob->Algorithms C,
//	             Cleo->Calculus A, Dan->Calculus B, Eve->Ancient Greece A
func fixture(t testing.TB) *store.DB {
	t.Helper()
	s := schema.MustNew("uni", []*schema.Table{
		{Name: "departments", PrimaryKey: "dept_id", Columns: []schema.Column{
			{Name: "dept_id", Type: schema.Int},
			{Name: "name", Type: schema.Text, NameLike: true},
			{Name: "budget", Type: schema.Float},
		}},
		{Name: "instructors", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "name", Type: schema.Text, NameLike: true},
			{Name: "dept_id", Type: schema.Int},
			{Name: "salary", Type: schema.Float},
		}},
		{Name: "students", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "name", Type: schema.Text, NameLike: true},
			{Name: "dept_id", Type: schema.Int},
			{Name: "gpa", Type: schema.Float},
		}},
		{Name: "courses", PrimaryKey: "course_id", Columns: []schema.Column{
			{Name: "course_id", Type: schema.Int},
			{Name: "title", Type: schema.Text, NameLike: true},
			{Name: "dept_id", Type: schema.Int},
		}},
		{Name: "enrollments", Columns: []schema.Column{
			{Name: "student_id", Type: schema.Int},
			{Name: "course_id", Type: schema.Int},
			{Name: "grade", Type: schema.Text},
		}},
	}, []schema.ForeignKey{
		{Table: "instructors", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "students", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "courses", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "enrollments", Column: "student_id", RefTable: "students", RefColumn: "id"},
		{Table: "enrollments", Column: "course_id", RefTable: "courses", RefColumn: "course_id"},
	})
	db := store.NewDB(s)
	db.MustInsert("departments", store.Int(1), store.Text("CS"), store.Float(200000))
	db.MustInsert("departments", store.Int(2), store.Text("Math"), store.Float(150000))
	db.MustInsert("departments", store.Int(3), store.Text("History"), store.Float(90000))
	db.MustInsert("instructors", store.Int(1), store.Text("Curie"), store.Int(1), store.Float(95000))
	db.MustInsert("instructors", store.Int(2), store.Text("Turing"), store.Int(1), store.Float(87000))
	db.MustInsert("instructors", store.Int(3), store.Text("Gauss"), store.Int(2), store.Float(72000))
	db.MustInsert("instructors", store.Int(4), store.Text("Herodotus"), store.Int(3), store.Float(61000))
	db.MustInsert("students", store.Int(1), store.Text("Ada"), store.Int(1), store.Float(3.9))
	db.MustInsert("students", store.Int(2), store.Text("Bob"), store.Int(1), store.Float(2.8))
	db.MustInsert("students", store.Int(3), store.Text("Cleo"), store.Int(2), store.Float(3.4))
	db.MustInsert("students", store.Int(4), store.Text("Dan"), store.Int(2), store.Float(3.4))
	db.MustInsert("students", store.Int(5), store.Text("Eve"), store.Int(3), store.Null())
	db.MustInsert("courses", store.Int(1), store.Text("Algorithms"), store.Int(1))
	db.MustInsert("courses", store.Int(2), store.Text("Calculus"), store.Int(2))
	db.MustInsert("courses", store.Int(3), store.Text("Ancient Greece"), store.Int(3))
	db.MustInsert("enrollments", store.Int(1), store.Int(1), store.Text("A"))
	db.MustInsert("enrollments", store.Int(1), store.Int(2), store.Text("B"))
	db.MustInsert("enrollments", store.Int(2), store.Int(1), store.Text("C"))
	db.MustInsert("enrollments", store.Int(3), store.Int(2), store.Text("A"))
	db.MustInsert("enrollments", store.Int(4), store.Int(2), store.Text("B"))
	db.MustInsert("enrollments", store.Int(5), store.Int(3), store.Text("A"))
	return db
}

func run(t testing.TB, db *store.DB, q string) *Result {
	t.Helper()
	res, err := Query(db.Snapshot(), sql.MustParse(q))
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

// names extracts a single text column as strings.
func names(res *Result) []string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String())
	}
	return out
}

func wantNames(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := names(res)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %v, want %v", i, got, want)
		}
	}
}

func TestSelectStar(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT * FROM departments")
	if len(res.Rows) != 3 || len(res.Cols) != 3 {
		t.Fatalf("got %dx%d", len(res.Rows), len(res.Cols))
	}
	if res.Cols[0] != "dept_id" || res.Cols[2] != "budget" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelection(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM students WHERE gpa > 3.0 ORDER BY name")
	wantNames(t, res, "Ada", "Cleo", "Dan")
}

func TestNullNeverMatches(t *testing.T) {
	db := fixture(t)
	// Eve has NULL gpa; she must match neither side.
	lo := run(t, db, "SELECT name FROM students WHERE gpa <= 3.0")
	hi := run(t, db, "SELECT name FROM students WHERE gpa > 3.0")
	if len(lo.Rows)+len(hi.Rows) != 4 {
		t.Errorf("NULL leaked into comparisons: %v + %v", names(lo), names(hi))
	}
	isnull := run(t, db, "SELECT name FROM students WHERE gpa IS NULL")
	wantNames(t, isnull, "Eve")
	notnull := run(t, db, "SELECT COUNT(*) FROM students WHERE gpa IS NOT NULL")
	if notnull.Rows[0][0].Int64() != 4 {
		t.Errorf("IS NOT NULL count = %v", notnull.Rows[0][0])
	}
}

func TestTwoTableJoin(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT s.name FROM students s, departments d "+
		"WHERE s.dept_id = d.dept_id AND d.name = 'CS' ORDER BY s.name")
	wantNames(t, res, "Ada", "Bob")
}

func TestThreeTableJoin(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT DISTINCT s.name FROM students s, enrollments e, courses c "+
		"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.title = 'Calculus' "+
		"ORDER BY s.name")
	wantNames(t, res, "Ada", "Cleo", "Dan")
}

func TestJoinMatchesCartesianFilter(t *testing.T) {
	db := fixture(t)
	// The hash-join fast path must agree with pure cartesian + filter.
	// Force cartesian by hiding the equality inside an OR.
	joined := run(t, db, "SELECT s.name, d.name FROM students s, departments d "+
		"WHERE s.dept_id = d.dept_id ORDER BY s.name")
	cart := run(t, db, "SELECT s.name, d.name FROM students s, departments d "+
		"WHERE s.dept_id = d.dept_id OR 1 = 2 ORDER BY s.name")
	if len(joined.Rows) != len(cart.Rows) {
		t.Fatalf("hash join %d rows, cartesian %d rows", len(joined.Rows), len(cart.Rows))
	}
	for i := range joined.Rows {
		if joined.Rows[i][0].String() != cart.Rows[i][0].String() ||
			joined.Rows[i][1].String() != cart.Rows[i][1].String() {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestAggregatesGlobal(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT COUNT(*), MIN(salary), MAX(salary), AVG(salary), SUM(salary) FROM instructors")
	row := res.Rows[0]
	if row[0].Int64() != 4 {
		t.Errorf("count = %v", row[0])
	}
	if f, _ := row[1].AsFloat(); f != 61000 {
		t.Errorf("min = %v", row[1])
	}
	if f, _ := row[2].AsFloat(); f != 95000 {
		t.Errorf("max = %v", row[2])
	}
	if f, _ := row[3].AsFloat(); f != 78750 {
		t.Errorf("avg = %v", row[3])
	}
	if f, _ := row[4].AsFloat(); f != 315000 {
		t.Errorf("sum = %v", row[4])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT COUNT(*), MAX(salary) FROM instructors WHERE salary > 1000000")
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate over empty input must yield one row, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Int64() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestCountNullSkipsAndDistinct(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT COUNT(gpa), COUNT(*), COUNT(DISTINCT gpa) FROM students")
	row := res.Rows[0]
	if row[0].Int64() != 4 || row[1].Int64() != 5 || row[2].Int64() != 3 {
		t.Errorf("counts = %v", row)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT d.name, COUNT(*) AS n FROM students s, departments d "+
		"WHERE s.dept_id = d.dept_id GROUP BY d.name HAVING COUNT(*) >= 2 ORDER BY d.name")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "CS" || res.Rows[0][1].Int64() != 2 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[1][0].String() != "Math" || res.Rows[1][1].Int64() != 2 {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestGroupByEmptyInputYieldsNoGroups(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT dept_id, COUNT(*) FROM students WHERE gpa > 100 GROUP BY dept_id")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByAggregateAndAlias(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT d.name, AVG(i.salary) AS avg_sal FROM instructors i, departments d "+
		"WHERE i.dept_id = d.dept_id GROUP BY d.name ORDER BY avg_sal DESC LIMIT 1")
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "CS" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := run(t, db, "SELECT d.name FROM instructors i, departments d "+
		"WHERE i.dept_id = d.dept_id GROUP BY d.name ORDER BY AVG(i.salary) DESC LIMIT 1")
	if res2.Rows[0][0].String() != "CS" {
		t.Fatalf("rows = %v", res2.Rows)
	}
}

func TestSuperlativePattern(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM instructors ORDER BY salary DESC LIMIT 1")
	wantNames(t, res, "Curie")
	res = run(t, db, "SELECT name FROM students ORDER BY gpa LIMIT 1")
	// NULL sorts first ascending.
	wantNames(t, res, "Eve")
}

func TestDistinct(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT DISTINCT dept_id FROM students ORDER BY dept_id")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInList(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM students WHERE name IN ('Ada', 'Dan') ORDER BY name")
	wantNames(t, res, "Ada", "Dan")
	res = run(t, db, "SELECT name FROM students WHERE name NOT IN ('Ada', 'Dan') ORDER BY name")
	wantNames(t, res, "Bob", "Cleo", "Eve")
}

func TestInSubquery(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM students WHERE id IN "+
		"(SELECT student_id FROM enrollments WHERE grade = 'A') ORDER BY name")
	wantNames(t, res, "Ada", "Cleo", "Eve")
}

func TestScalarSubquery(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM instructors WHERE salary > "+
		"(SELECT AVG(salary) FROM instructors) ORDER BY name")
	wantNames(t, res, "Curie", "Turing")
}

// Correlated subqueries are the reference executor's alone: the
// planned executor declines them with ErrUnsupported.

func TestCorrelatedExists(t *testing.T) {
	db := fixture(t)
	q := "SELECT name FROM students s WHERE EXISTS " +
		"(SELECT * FROM enrollments e WHERE e.student_id = s.id AND e.grade = 'A') ORDER BY name"
	wantNames(t, reference(t, db, q), "Ada", "Cleo", "Eve")
	wantUnsupported(t, db, q)
	q = "SELECT name FROM students s WHERE NOT EXISTS " +
		"(SELECT * FROM enrollments e WHERE e.student_id = s.id) ORDER BY name"
	if res := reference(t, db, q); len(res.Rows) != 0 {
		t.Errorf("all students are enrolled, got %v", names(res))
	}
	wantUnsupported(t, db, q)
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	db := fixture(t)
	// Instructors earning above their own department's average.
	q := "SELECT name FROM instructors i WHERE salary > " +
		"(SELECT AVG(salary) FROM instructors j WHERE j.dept_id = i.dept_id) ORDER BY name"
	wantNames(t, reference(t, db, q), "Curie")
	wantUnsupported(t, db, q)
}

func TestNestedCountComparison(t *testing.T) {
	db := fixture(t)
	// Students with more enrollments than Bob (NaLIR-style nested query).
	q := "SELECT s.name FROM students s WHERE " +
		"(SELECT COUNT(*) FROM enrollments e WHERE e.student_id = s.id) > " +
		"(SELECT COUNT(*) FROM enrollments e2, students b WHERE e2.student_id = b.id AND b.name = 'Bob') " +
		"ORDER BY s.name"
	wantNames(t, reference(t, db, q), "Ada")
	wantUnsupported(t, db, q)
}

func TestBetweenAndLike(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM instructors WHERE salary BETWEEN 70000 AND 90000 ORDER BY name")
	wantNames(t, res, "Gauss", "Turing")
	res = run(t, db, "SELECT title FROM courses WHERE title LIKE 'A%' ORDER BY title")
	wantNames(t, res, "Algorithms", "Ancient Greece")
	res = run(t, db, "SELECT title FROM courses WHERE title LIKE '%c_lus'")
	wantNames(t, res, "Calculus")
	res = run(t, db, "SELECT name FROM instructors WHERE salary NOT BETWEEN 70000 AND 90000 ORDER BY name")
	wantNames(t, res, "Curie", "Herodotus")
}

func TestArithmeticInQuery(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM instructors WHERE salary * 2 > 180000 ORDER BY name")
	wantNames(t, res, "Curie")
	res = run(t, db, "SELECT salary + 1000 FROM instructors WHERE name = 'Gauss'")
	if f, _ := res.Rows[0][0].AsFloat(); f != 73000 {
		t.Errorf("got %v", res.Rows[0][0])
	}
	// Division by zero yields NULL, which WHERE rejects.
	res = run(t, db, "SELECT name FROM instructors WHERE salary / 0 > 1")
	if len(res.Rows) != 0 {
		t.Errorf("division by zero leaked: %v", names(res))
	}
}

func TestNotAndOrLogic(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM students WHERE NOT (gpa > 3.0) ORDER BY name")
	// Eve's NULL gpa: NOT NULL -> NULL -> rejected.
	wantNames(t, res, "Bob")
	res = run(t, db, "SELECT name FROM students WHERE gpa > 3.8 OR name = 'Bob' ORDER BY name")
	wantNames(t, res, "Ada", "Bob")
}

func TestAliasedSelfJoinStyle(t *testing.T) {
	db := fixture(t)
	// Pairs of distinct students in the same department.
	res := run(t, db, "SELECT a.name, b.name FROM students a, students b "+
		"WHERE a.dept_id = b.dept_id AND a.id < b.id ORDER BY a.name")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := fixture(t)
	bad := []string{
		"SELECT * FROM nosuch",
		"SELECT nosuchcol FROM students",
		"SELECT name FROM students, instructors",                            // ambiguous column
		"SELECT s.name FROM students s, students s",                         // duplicate binding
		"SELECT * FROM students WHERE name + 1 = 2",                         // arithmetic on text
		"SELECT MAX(salary) FROM instructors WHERE MAX(salary) > 0",         // aggregate in WHERE
		"SELECT *, COUNT(*) FROM students",                                  // star with aggregate
		"SELECT name FROM students WHERE id IN (SELECT * FROM enrollments)", // multi-col IN
		"SELECT name FROM students WHERE gpa > (SELECT gpa FROM students)",  // scalar subquery rows
	}
	for _, q := range bad {
		if _, err := Query(db.Snapshot(), sql.MustParse(q)); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
}

func TestUnqualifiedColumnsAcrossJoin(t *testing.T) {
	db := fixture(t)
	// gpa exists only in students, budget only in departments.
	res := run(t, db, "SELECT s.name FROM students s, departments d "+
		"WHERE s.dept_id = d.dept_id AND gpa > 3.0 AND budget > 100000 ORDER BY s.name")
	wantNames(t, res, "Ada", "Cleo", "Dan")
}

func TestLimitZero(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name FROM students LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true}, // h(e)(l)l(o): _ matches e and l
		{"hello", "h_x_o", false},
		{"hello", "hell", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c%", true},
		{"abc", "_%", true},
		{"Abc", "abc", false}, // case-sensitive
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.p); got != c.want {
			t.Errorf("matchLike(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestFormatResult(t *testing.T) {
	db := fixture(t)
	res := run(t, db, "SELECT name, budget FROM departments ORDER BY dept_id")
	out := FormatResult(res)
	if !strings.Contains(out, "name") || !strings.Contains(out, "CS") {
		t.Errorf("FormatResult = %q", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	if FormatResult(nil) != "" {
		t.Error("nil result should format empty")
	}
}

func TestUncorrelatedSubqueryCached(t *testing.T) {
	db := fixture(t)
	// A query whose subquery would be very slow if re-run per row is
	// still instant: indirectly verified through correctness here.
	res := run(t, db, "SELECT name FROM students WHERE gpa >= "+
		"(SELECT MAX(gpa) FROM students) ORDER BY name")
	wantNames(t, res, "Ada")
}

func BenchmarkJoinAggregate(b *testing.B) {
	db := fixture(b)
	stmt := sql.MustParse("SELECT d.name, AVG(i.salary) FROM instructors i, departments d " +
		"WHERE i.dept_id = d.dept_id GROUP BY d.name ORDER BY AVG(i.salary) DESC")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(db.Snapshot(), stmt); err != nil {
			b.Fatal(err)
		}
	}
}
