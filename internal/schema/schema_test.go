package schema

import (
	"strings"
	"testing"
)

// testSchema builds a small university schema:
//
//	departments(dept_id PK, name, budget)
//	instructors(id PK, name, dept_id -> departments, salary)
//	students(id PK, name, dept_id -> departments, gpa)
//	courses(course_id PK, title, dept_id -> departments)
//	enrollments(student_id -> students, course_id -> courses, grade)
func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New("uni", []*Table{
		{Name: "departments", PrimaryKey: "dept_id", Columns: []Column{
			{Name: "dept_id", Type: Int},
			{Name: "name", Type: Text, NameLike: true},
			{Name: "budget", Type: Float},
		}},
		{Name: "instructors", PrimaryKey: "id", Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "name", Type: Text, NameLike: true},
			{Name: "dept_id", Type: Int},
			{Name: "salary", Type: Float, Synonyms: []string{"pay"}},
		}},
		{Name: "students", PrimaryKey: "id", Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "name", Type: Text, NameLike: true},
			{Name: "dept_id", Type: Int},
			{Name: "gpa", Type: Float},
		}},
		{Name: "courses", PrimaryKey: "course_id", Columns: []Column{
			{Name: "course_id", Type: Int},
			{Name: "title", Type: Text, NameLike: true},
			{Name: "dept_id", Type: Int},
		}},
		{Name: "enrollments", Columns: []Column{
			{Name: "student_id", Type: Int},
			{Name: "course_id", Type: Int},
			{Name: "grade", Type: Text},
		}},
	}, []ForeignKey{
		{Table: "instructors", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "students", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "courses", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "enrollments", Column: "student_id", RefTable: "students", RefColumn: "id"},
		{Table: "enrollments", Column: "course_id", RefTable: "courses", RefColumn: "course_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name   string
		tables []*Table
		fks    []ForeignKey
		errSub string
	}{
		{
			name:   "empty table name",
			tables: []*Table{{Name: "", Columns: []Column{{Name: "x"}}}},
			errSub: "empty name",
		},
		{
			name:   "no columns",
			tables: []*Table{{Name: "t"}},
			errSub: "no columns",
		},
		{
			name: "duplicate table",
			tables: []*Table{
				{Name: "t", Columns: []Column{{Name: "x"}}},
				{Name: "t", Columns: []Column{{Name: "x"}}},
			},
			errSub: "duplicate table",
		},
		{
			name:   "duplicate column",
			tables: []*Table{{Name: "t", Columns: []Column{{Name: "x"}, {Name: "x"}}}},
			errSub: "duplicate column",
		},
		{
			name:   "bad primary key",
			tables: []*Table{{Name: "t", PrimaryKey: "nope", Columns: []Column{{Name: "x"}}}},
			errSub: "primary key",
		},
		{
			name:   "fk unknown table",
			tables: []*Table{{Name: "t", Columns: []Column{{Name: "x"}}}},
			fks:    []ForeignKey{{Table: "t", Column: "x", RefTable: "zzz", RefColumn: "x"}},
			errSub: "unknown table",
		},
		{
			name:   "fk unknown column",
			tables: []*Table{{Name: "t", Columns: []Column{{Name: "x"}}}},
			fks:    []ForeignKey{{Table: "t", Column: "bad", RefTable: "t", RefColumn: "x"}},
			errSub: "unknown column",
		},
	}
	for _, c := range cases {
		_, err := New("s", c.tables, c.fks)
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.errSub)
		}
	}
}

func TestTableLookups(t *testing.T) {
	s := testSchema(t)
	if s.Table("students") == nil || s.Table("missing") != nil {
		t.Error("Table lookup wrong")
	}
	st := s.Table("students")
	if st.Column("gpa") == nil || st.Column("missing") != nil {
		t.Error("Column lookup wrong")
	}
	if got := st.NameColumn(); got != "name" {
		t.Errorf("NameColumn = %q", got)
	}
	en := s.Table("enrollments")
	if got := en.NameColumn(); got != "grade" {
		t.Errorf("fallback NameColumn = %q (want first text column)", got)
	}
	names := s.TableNames()
	if len(names) != 5 || names[0] != "departments" {
		t.Errorf("TableNames = %v", names)
	}
	cols := st.ColumnNames()
	if len(cols) != 4 || cols[3] != "gpa" {
		t.Errorf("ColumnNames = %v", cols)
	}
}

func TestJoinPathDirect(t *testing.T) {
	s := testSchema(t)
	plan, err := s.JoinPath([]string{"students", "departments"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Conds) != 1 {
		t.Fatalf("conds = %v", plan.Conds)
	}
	want := "students.dept_id = departments.dept_id"
	if plan.Conds[0].String() != want {
		t.Errorf("cond = %q, want %q", plan.Conds[0], want)
	}
	if len(plan.Tables) != 2 {
		t.Errorf("tables = %v", plan.Tables)
	}
}

func TestJoinPathNeedsLinkTable(t *testing.T) {
	s := testSchema(t)
	plan, err := s.JoinPath([]string{"students", "courses"})
	if err != nil {
		t.Fatal(err)
	}
	// The shortest connection is through enrollments (2 joins), not
	// through departments (also 2 joins). Either is minimal; the plan
	// must include exactly one link table and two conditions.
	if len(plan.Tables) != 3 {
		t.Fatalf("tables = %v", plan.Tables)
	}
	if len(plan.Conds) != 2 {
		t.Fatalf("conds = %v", plan.Conds)
	}
}

func TestJoinPathSingleAndEmpty(t *testing.T) {
	s := testSchema(t)
	plan, err := s.JoinPath([]string{"students"})
	if err != nil || len(plan.Conds) != 0 || len(plan.Tables) != 1 {
		t.Errorf("single-table plan = %+v, err %v", plan, err)
	}
	plan, err = s.JoinPath(nil)
	if err != nil || len(plan.Tables) != 0 {
		t.Errorf("empty plan = %+v, err %v", plan, err)
	}
}

func TestJoinPathDuplicatesCollapse(t *testing.T) {
	s := testSchema(t)
	plan, err := s.JoinPath([]string{"students", "students", "departments"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tables) != 2 || len(plan.Conds) != 1 {
		t.Errorf("plan = %+v", plan)
	}
}

func TestJoinPathUnknownTable(t *testing.T) {
	s := testSchema(t)
	if _, err := s.JoinPath([]string{"students", "aliens"}); err == nil {
		t.Error("expected error for unknown table")
	}
}

func TestJoinPathDisconnected(t *testing.T) {
	s := MustNew("disc", []*Table{
		{Name: "a", Columns: []Column{{Name: "x", Type: Int}}},
		{Name: "b", Columns: []Column{{Name: "y", Type: Int}}},
	}, nil)
	if _, err := s.JoinPath([]string{"a", "b"}); err == nil {
		t.Error("expected error for disconnected tables")
	}
}

func TestJoinPathDeterministic(t *testing.T) {
	s := testSchema(t)
	first, err := s.JoinPath([]string{"instructors", "students", "courses"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := s.JoinPath([]string{"instructors", "students", "courses"})
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Conds) != len(first.Conds) {
			t.Fatalf("nondeterministic plan size")
		}
		for j := range again.Conds {
			if again.Conds[j] != first.Conds[j] {
				t.Fatalf("nondeterministic conds: %v vs %v", again.Conds, first.Conds)
			}
		}
	}
}

func TestPathLength(t *testing.T) {
	s := testSchema(t)
	if got := s.PathLength([]string{"students", "departments"}); got != 1 {
		t.Errorf("PathLength = %d, want 1", got)
	}
	if got := s.PathLength([]string{"students"}); got != 0 {
		t.Errorf("PathLength single = %d, want 0", got)
	}
	if got := s.PathLength([]string{"students", "nope"}); got != -1 {
		t.Errorf("PathLength unknown = %d, want -1", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid schema")
		}
	}()
	MustNew("bad", []*Table{{Name: "t"}}, nil)
}

func TestColTypeStrings(t *testing.T) {
	if Int.String() != "INT" || Text.String() != "TEXT" || Float.String() != "FLOAT" || Bool.String() != "BOOL" {
		t.Error("ColType strings wrong")
	}
	if !Int.IsNumeric() || !Float.IsNumeric() || Text.IsNumeric() || Bool.IsNumeric() {
		t.Error("IsNumeric wrong")
	}
}
