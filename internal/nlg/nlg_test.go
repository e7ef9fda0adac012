package nlg

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/iql"
	"repro/internal/lexicon"
	"repro/internal/store"
)

func field(t, c string) iql.FieldRef { return iql.FieldRef{Table: t, Column: c} }

func TestParaphraseListing(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{
		Entity: "students",
		Conds: []iql.Condition{{
			Field: field("students", "gpa"), Op: lexicon.Gt, Value: store.Float(3.5),
		}},
	}
	p := Paraphrase(q, s)
	if !strings.Contains(p, "list the students") {
		t.Errorf("paraphrase = %q", p)
	}
	if !strings.Contains(p, "gpa of students is greater than 3.5") {
		t.Errorf("paraphrase = %q", p)
	}
}

func TestParaphraseAggregate(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{
		Entity:  "instructors",
		Outputs: []iql.Output{{Agg: lexicon.Avg, Field: field("instructors", "salary")}},
	}
	p := Paraphrase(q, s)
	if !strings.Contains(p, "compute the average salary of instructors") {
		t.Errorf("paraphrase = %q", p)
	}
}

func TestParaphraseCountAndGroup(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{
		Entity:  "students",
		Outputs: []iql.Output{{CountStar: true}},
		GroupBy: []iql.FieldRef{field("departments", "name")},
	}
	p := Paraphrase(q, s)
	if !strings.Contains(p, "number of students") || !strings.Contains(p, "grouped by name of departments") {
		t.Errorf("paraphrase = %q", p)
	}
}

func TestParaphraseSuperlative(t *testing.T) {
	s := dataset.GeoSchema()
	q := &iql.Query{
		Entity: "rivers",
		Order:  &iql.OrderSpec{Field: field("rivers", "length"), Desc: true, Limit: 1},
	}
	p := Paraphrase(q, s)
	if !strings.Contains(p, "taking the one with the highest length") {
		t.Errorf("paraphrase = %q", p)
	}
	q.Order.Limit = 5
	if p := Paraphrase(q, s); !strings.Contains(p, "taking the 5 with the highest") {
		t.Errorf("paraphrase = %q", p)
	}
	q.Order.Limit = 0
	q.Order.Desc = false
	if p := Paraphrase(q, s); !strings.Contains(p, "sorted by length") {
		t.Errorf("paraphrase = %q", p)
	}
}

func TestParaphraseHavingAndNested(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{
		Entity: "students",
		Having: &iql.Having{CountTable: "enrollments", Op: lexicon.Gt, Value: 2},
	}
	p := Paraphrase(q, s)
	if !strings.Contains(p, "number of enrollments") || !strings.Contains(p, "greater than 2") {
		t.Errorf("paraphrase = %q", p)
	}
	q = &iql.Query{
		Entity: "instructors",
		Sub: &iql.SubCompare{
			Field: field("instructors", "salary"), Op: lexicon.Gt,
			Agg: lexicon.Avg, SubField: field("instructors", "salary"),
		},
	}
	p = Paraphrase(q, s)
	if !strings.Contains(p, "greater than the average salary") {
		t.Errorf("paraphrase = %q", p)
	}
}

func TestParaphraseNegationAndBetween(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{
		Entity: "students",
		Conds: []iql.Condition{
			{Field: field("departments", "name"), Op: lexicon.Eq, Value: store.Text("History"), Negated: true},
			{Field: field("students", "gpa"), Value: store.Float(3), Hi: store.Float(4), Between: true},
		},
	}
	p := Paraphrase(q, s)
	if !strings.Contains(p, "is not 'History'") {
		t.Errorf("paraphrase = %q", p)
	}
	if !strings.Contains(p, "between 3 and 4") {
		t.Errorf("paraphrase = %q", p)
	}
}

// TestParaphraseColumnNamesItsTable: a column is phrased with its
// table's name as the schema spells it, underscores as spaces: "order
// items", not "order_items" nor "order_itemss".
func TestParaphraseColumnNamesItsTable(t *testing.T) {
	q := &iql.Query{
		Entity:  "order_items",
		Outputs: []iql.Output{{Agg: lexicon.Avg, Field: field("order_items", "quantity")}},
	}
	if p := Paraphrase(q, dataset.SalesSchema()); !strings.Contains(p, "the average quantity of order items") {
		t.Errorf("paraphrase = %q", p)
	}
}

func TestRespondScalar(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "students", Outputs: []iql.Output{{CountStar: true}}}
	res := &exec.Result{Cols: []string{"COUNT(*)"}, Rows: []store.Row{{store.Int(42)}}}
	if r := Respond(q, res, s); !strings.Contains(r, "There are 42 matching students") {
		t.Errorf("respond = %q", r)
	}
	q = &iql.Query{Entity: "instructors",
		Outputs: []iql.Output{{Agg: lexicon.Avg, Field: field("instructors", "salary")}}}
	res = &exec.Result{Cols: []string{"AVG"}, Rows: []store.Row{{store.Float(78750)}}}
	if r := Respond(q, res, s); !strings.Contains(r, "average salary of instructors is 78750") {
		t.Errorf("respond = %q", r)
	}
}

func TestRespondListing(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "students"}
	res := &exec.Result{Cols: []string{"name"}, Rows: []store.Row{
		{store.Text("Ada")}, {store.Text("Bob")},
	}}
	r := Respond(q, res, s)
	if !strings.Contains(r, "Found 2 matching students: Ada, Bob.") {
		t.Errorf("respond = %q", r)
	}
}

func TestRespondListingTruncates(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "students"}
	var rows []store.Row
	for i := 0; i < 25; i++ {
		rows = append(rows, store.Row{store.Int(int64(i))})
	}
	r := Respond(q, &exec.Result{Cols: []string{"id"}, Rows: rows}, s)
	if !strings.Contains(r, "and 15 more") {
		t.Errorf("respond = %q", r)
	}
}

func TestRespondEmptyAndNil(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "students"}
	if r := Respond(q, &exec.Result{Cols: []string{"name"}}, s); !strings.Contains(r, "No matching students") {
		t.Errorf("respond = %q", r)
	}
	if r := Respond(q, nil, s); !strings.Contains(r, "could not") {
		t.Errorf("respond = %q", r)
	}
}

func TestRespondSingleCellNonAggregate(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "departments",
		Outputs: []iql.Output{{Field: field("departments", "budget")}}}
	res := &exec.Result{Cols: []string{"budget"}, Rows: []store.Row{{store.Float(2500000)}}}
	if r := Respond(q, res, s); !strings.Contains(r, "The answer is 2500000") {
		t.Errorf("respond = %q", r)
	}
}

// TestRespondGroups: GROUP BY answers must verbalize the top groups
// with their values, not just the group count.
func TestRespondGroups(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "departments",
		Outputs: []iql.Output{{CountStar: true}},
		GroupBy: []iql.FieldRef{field("departments", "name")}}
	res := &exec.Result{Cols: []string{"name", "COUNT(*)"}, Rows: []store.Row{
		{store.Text("Biology"), store.Int(4)},
		{store.Text("History"), store.Int(7)},
	}}
	r := Respond(q, res, s)
	if !strings.Contains(r, "2 groups") {
		t.Errorf("respond = %q", r)
	}
	if !strings.Contains(r, "Biology: 4") || !strings.Contains(r, "History: 7") {
		t.Errorf("group values missing from %q", r)
	}
}

// TestRespondGroupsTruncates caps the enumerated groups.
func TestRespondGroupsTruncates(t *testing.T) {
	s := dataset.UniversitySchema()
	q := &iql.Query{Entity: "students",
		Outputs: []iql.Output{{Agg: lexicon.Avg, Field: field("students", "gpa")}},
		GroupBy: []iql.FieldRef{field("students", "year")}}
	var rows []store.Row
	for i := 0; i < 14; i++ {
		rows = append(rows, store.Row{store.Int(int64(i)), store.Float(3.0)})
	}
	r := Respond(q, &exec.Result{Cols: []string{"year", "AVG"}, Rows: rows}, s)
	if !strings.Contains(r, "and 4 more") {
		t.Errorf("respond = %q", r)
	}
	if !strings.Contains(r, "0: 3") {
		t.Errorf("group value pair missing from %q", r)
	}
}

// TestRespondCountAgreement: the noun and verb agree with the count,
// for a COUNT(*) answer and for a listing.
func TestRespondCountAgreement(t *testing.T) {
	s := dataset.UniversitySchema()
	count := &iql.Query{Entity: "students", Outputs: []iql.Output{{CountStar: true}}}
	listing := &iql.Query{Entity: "students"}
	names := []store.Row{
		{store.Text("Ada"), store.Float(3.9)},
		{store.Text("Bob"), store.Float(3.7)},
	}
	for _, tc := range []struct {
		n                   int
		wantCount, wantList string
	}{
		{0, "There are 0 matching students.", "No matching students were found."},
		{1, "There is 1 matching student.", "Found 1 matching student: Ada."},
		{2, "There are 2 matching students.", "Found 2 matching students: Ada, Bob."},
	} {
		res := &exec.Result{Cols: []string{"COUNT(*)"}, Rows: []store.Row{{store.Int(int64(tc.n))}}}
		if got := Respond(count, res, s); got != tc.wantCount {
			t.Errorf("count %d: respond = %q, want %q", tc.n, got, tc.wantCount)
		}
		res = &exec.Result{Cols: []string{"name", "gpa"}, Rows: names[:tc.n]}
		if got := Respond(listing, res, s); got != tc.wantList {
			t.Errorf("listing of %d: respond = %q, want %q", tc.n, got, tc.wantList)
		}
	}
	q := &iql.Query{Entity: "order_items", Outputs: []iql.Output{{CountStar: true}}}
	res := &exec.Result{Cols: []string{"COUNT(*)"}, Rows: []store.Row{{store.Int(1)}}}
	if got := Respond(q, res, dataset.SalesSchema()); got != "There is 1 matching order item." {
		t.Errorf("respond = %q", got)
	}
}
