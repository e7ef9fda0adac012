package iql

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/lexicon"
	"repro/internal/store"
)

func uniField(table, col string) FieldRef { return FieldRef{Table: table, Column: col} }

// runQ translates and executes q against the university dataset.
func runQ(t *testing.T, q *Query) *exec.Result {
	t.Helper()
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatalf("ToSQL(%s): %v", q, err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatalf("exec of %q: %v", stmt, err)
	}
	return res
}

func TestToSQLPlainSelection(t *testing.T) {
	q := &Query{
		Entity: "students",
		Conds: []Condition{{
			Field: uniField("students", "gpa"),
			Op:    lexicon.Gt,
			Value: store.Float(3.8),
		}},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "FROM students") || !strings.Contains(s, "students.gpa > 3.8") {
		t.Errorf("sql = %s", s)
	}
	// Default projection is the entity's name column.
	if !strings.Contains(s, "SELECT students.name") {
		t.Errorf("default projection missing: %s", s)
	}
	res := runQ(t, q)
	if len(res.Rows) == 0 {
		t.Error("no students over 3.8")
	}
}

func TestToSQLJoinInference(t *testing.T) {
	// "students in the Computer Science department": condition on
	// departments.name, entity students -> join must be inferred.
	q := &Query{
		Entity:   "students",
		Distinct: true,
		Conds: []Condition{{
			Field: uniField("departments", "name"),
			Op:    lexicon.Eq,
			Value: store.Text("Computer Science"),
		}},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "students.dept_id = departments.dept_id") {
		t.Errorf("join condition missing: %s", s)
	}
	res := runQ(t, q)
	if len(res.Rows) != 30 { // skewed distribution: CS has 30 of 120
		t.Errorf("CS students = %d, want 30", len(res.Rows))
	}
}

func TestToSQLCount(t *testing.T) {
	q := &Query{
		Entity:  "students",
		Outputs: []Output{{CountStar: true}},
	}
	res := runQ(t, q)
	if res.Rows[0][0].Int64() != 120 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestToSQLCountDistinctUnderJoin(t *testing.T) {
	// Counting students filtered through a joined table must not
	// multiply by join fan-out.
	q := &Query{
		Entity:  "students",
		Outputs: []Output{{CountStar: true}},
		Conds: []Condition{{
			Field: uniField("departments", "name"),
			Op:    lexicon.Eq,
			Value: store.Text("Computer Science"),
		}},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "COUNT(DISTINCT students.id)") {
		t.Errorf("expected COUNT(DISTINCT pk): %s", stmt)
	}
	res := runQ(t, q)
	if res.Rows[0][0].Int64() != 30 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestToSQLGlobalAggregate(t *testing.T) {
	q := &Query{
		Entity:  "instructors",
		Outputs: []Output{{Agg: lexicon.Avg, Field: uniField("instructors", "salary")}},
	}
	res := runQ(t, q)
	f, ok := res.Rows[0][0].AsFloat()
	if !ok || f < 45000 || f > 105000 {
		t.Errorf("avg salary = %v", res.Rows[0][0])
	}
}

func TestToSQLGroupBy(t *testing.T) {
	q := &Query{
		Entity:  "instructors",
		Outputs: []Output{{Agg: lexicon.Avg, Field: uniField("instructors", "salary")}},
		GroupBy: []FieldRef{uniField("departments", "name")},
	}
	res := runQ(t, q)
	if len(res.Rows) != 6 {
		t.Fatalf("groups = %d, want 6", len(res.Rows))
	}
	if len(res.Cols) != 2 {
		t.Fatalf("cols = %v (group key must be projected)", res.Cols)
	}
}

func TestToSQLSuperlative(t *testing.T) {
	q := &Query{
		Entity: "instructors",
		Order: &OrderSpec{
			Field: uniField("instructors", "salary"),
			Desc:  true,
			Limit: 1,
		},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "ORDER BY instructors.salary DESC LIMIT 1") {
		t.Errorf("sql = %s", s)
	}
	res := runQ(t, q)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestToSQLOrderByCountOfRelated(t *testing.T) {
	// "the department with the most students"
	q := &Query{
		Entity: "departments",
		Order: &OrderSpec{
			CountRows:  true,
			CountTable: "students",
			Desc:       true,
			Limit:      1,
		},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "GROUP BY departments.dept_id") {
		t.Errorf("entity grouping missing: %s", s)
	}
	if !strings.Contains(s, "ORDER BY COUNT(DISTINCT students.id) DESC") {
		t.Errorf("count order missing: %s", s)
	}
	res := runQ(t, q)
	if len(res.Rows) != 1 || len(res.Cols) != 1 {
		t.Errorf("result = %v %v", res.Cols, res.Rows)
	}
}

func TestToSQLHavingCount(t *testing.T) {
	// Department sizes are 30/25/20/15/15/15 students.
	q := &Query{
		Entity: "departments",
		Having: &Having{
			CountTable: "students",
			Op:         lexicon.Ge,
			Value:      20,
		},
	}
	res := runQ(t, q)
	if len(res.Rows) != 3 {
		t.Errorf("departments with >= 20 students = %d, want 3", len(res.Rows))
	}
	q.Having.Op = lexicon.Gt
	q.Having.Value = 25
	res = runQ(t, q)
	if len(res.Rows) != 1 {
		t.Errorf("departments with > 25 students = %d, want 1", len(res.Rows))
	}
}

func TestToSQLHavingAggregate(t *testing.T) {
	// "departments whose average salary is above 70000"
	q := &Query{
		Entity: "departments",
		Having: &Having{
			Agg:   lexicon.Avg,
			Field: uniField("instructors", "salary"),
			Op:    lexicon.Gt,
			Value: 70000,
		},
	}
	res := runQ(t, q)
	all := runQ(t, &Query{Entity: "departments"})
	if len(res.Rows) == 0 || len(res.Rows) >= len(all.Rows) {
		t.Errorf("having filtered to %d of %d", len(res.Rows), len(all.Rows))
	}
}

func TestToSQLNestedComparison(t *testing.T) {
	// "instructors who earn more than the average salary"
	q := &Query{
		Entity: "instructors",
		Sub: &SubCompare{
			Field:    uniField("instructors", "salary"),
			Op:       lexicon.Gt,
			Agg:      lexicon.Avg,
			SubField: uniField("instructors", "salary"),
		},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "(SELECT AVG(instructors.salary) FROM instructors)") {
		t.Errorf("subquery missing: %s", s)
	}
	res := runQ(t, q)
	if len(res.Rows) == 0 || len(res.Rows) >= 24 {
		t.Errorf("above-average instructors = %d", len(res.Rows))
	}
}

func TestToSQLNestedWithSubConds(t *testing.T) {
	// "students with gpa above the average gpa of History students"
	q := &Query{
		Entity: "students",
		Sub: &SubCompare{
			Field:    uniField("students", "gpa"),
			Op:       lexicon.Gt,
			Agg:      lexicon.Avg,
			SubField: uniField("students", "gpa"),
			SubConds: []Condition{{
				Field: uniField("departments", "name"),
				Op:    lexicon.Eq,
				Value: store.Text("History"),
			}},
		},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, "departments.name = 'History'") {
		t.Errorf("subcondition missing: %s", s)
	}
	runQ(t, q) // must execute cleanly
}

func TestToSQLBetween(t *testing.T) {
	q := &Query{
		Entity: "instructors",
		Conds: []Condition{{
			Field:   uniField("instructors", "salary"),
			Value:   store.Float(50000),
			Hi:      store.Float(60000),
			Between: true,
		}},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "BETWEEN 50000.0 AND 60000.0") {
		t.Errorf("sql = %s", stmt)
	}
	runQ(t, q)
}

func TestToSQLNegation(t *testing.T) {
	q := &Query{
		Entity:   "students",
		Distinct: true,
		Conds: []Condition{{
			Field:   uniField("departments", "name"),
			Op:      lexicon.Eq,
			Value:   store.Text("History"),
			Negated: true,
		}},
	}
	db := dataset.University(1)
	stmt, err := ToSQL(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "departments.name <> 'History'") {
		t.Errorf("sql = %s", stmt)
	}
	res := runQ(t, q)
	if len(res.Rows) != 105 { // 120 minus History's 15
		t.Errorf("non-History students = %d, want 105", len(res.Rows))
	}
}

func TestToSQLErrors(t *testing.T) {
	db := dataset.University(1)
	cases := []*Query{
		{Entity: "aliens"},
		{Entity: "students", Outputs: []Output{{Agg: lexicon.Avg}}},                                                       // agg without field
		{Entity: "students", Having: &Having{Op: lexicon.Gt, Value: 1}},                                                   // having without aggregate
		{Entity: "students", Order: &OrderSpec{}},                                                                         // order without field
		{Entity: "students", Order: &OrderSpec{Agg: lexicon.Avg}},                                                         // agg order without field
		{Entity: "students", Sub: &SubCompare{Field: uniField("students", "gpa"), SubField: uniField("students", "gpa")}}, // no agg
		{Entity: "departments", Having: &Having{CountTable: "aliens", Op: lexicon.Gt, Value: 1}},
	}
	for _, q := range cases {
		if _, err := ToSQL(q, db.Schema); err == nil {
			t.Errorf("ToSQL(%s) succeeded, want error", q)
		}
	}
}

func TestQueryClone(t *testing.T) {
	q := &Query{
		Entity: "students",
		Conds:  []Condition{{Field: uniField("students", "gpa"), Op: lexicon.Gt, Value: store.Float(3)}},
		Order:  &OrderSpec{Field: uniField("students", "gpa"), Desc: true, Limit: 1},
		Having: &Having{CountTable: "enrollments", Op: lexicon.Gt, Value: 2},
		Sub: &SubCompare{Field: uniField("students", "gpa"), Op: lexicon.Gt,
			Agg: lexicon.Avg, SubField: uniField("students", "gpa")},
	}
	c := q.Clone()
	c.Conds[0].Op = lexicon.Lt
	c.Order.Limit = 5
	c.Having.Value = 99
	c.Sub.Op = lexicon.Lt
	if q.Conds[0].Op != lexicon.Gt || q.Order.Limit != 1 || q.Having.Value != 2 || q.Sub.Op != lexicon.Gt {
		t.Error("Clone aliases the original")
	}
}

func TestQueryTablesAndAggregated(t *testing.T) {
	q := &Query{
		Entity:  "students",
		Outputs: []Output{{Field: uniField("students", "name")}},
		Conds:   []Condition{{Field: uniField("departments", "name"), Op: lexicon.Eq, Value: store.Text("CS")}},
	}
	tabs := q.Tables()
	if len(tabs) != 2 || tabs[0] != "students" || tabs[1] != "departments" {
		t.Errorf("tables = %v", tabs)
	}
	if q.Aggregated() {
		t.Error("plain query reported aggregated")
	}
	q.Outputs = []Output{{CountStar: true}}
	if !q.Aggregated() {
		t.Error("count query not aggregated")
	}
}

func TestQueryString(t *testing.T) {
	q := &Query{
		Entity:  "students",
		Outputs: []Output{{CountStar: true}},
		Conds:   []Condition{{Field: uniField("students", "gpa"), Op: lexicon.Gt, Value: store.Float(3)}},
	}
	s := q.String()
	if !strings.Contains(s, "entity=students") || !strings.Contains(s, "COUNT(*)") {
		t.Errorf("String = %q", s)
	}
}
