package grammar

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/iql"
	"repro/internal/lexicon"
	"repro/internal/semindex"
	"repro/internal/store"
	"repro/internal/strutil"
)

func uniGrammar(t testing.TB) *Grammar {
	t.Helper()
	idx := semindex.Build(dataset.University(1), semindex.DefaultOptions())
	return New(idx, DefaultOptions())
}

func geoGrammar(t testing.TB) *Grammar {
	t.Helper()
	idx := semindex.Build(dataset.Geo(), semindex.DefaultOptions())
	return New(idx, DefaultOptions())
}

// parseBest parses and returns the top candidate, failing the test when
// nothing parses.
func parseBest(t *testing.T, g *Grammar, q string) *iql.Query {
	t.Helper()
	cands := g.Parse(strutil.Tokenize(q))
	if len(cands) == 0 {
		t.Fatalf("no parse for %q", q)
	}
	return cands[0].Query
}

func TestParseBareEntity(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "show all students")
	if q.Entity != "students" || len(q.Conds) != 0 {
		t.Errorf("query = %s", q)
	}
}

func TestParseEntitySynonym(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "list the professors")
	if q.Entity != "instructors" {
		t.Errorf("query = %s", q)
	}
}

func TestParseValueCondition(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students in Computer Science")
	if q.Entity != "students" || len(q.Conds) != 1 {
		t.Fatalf("query = %s", q)
	}
	c := q.Conds[0]
	if c.Field.Table != "departments" || c.Field.Column != "name" || c.Value.Str() != "Computer Science" {
		t.Errorf("cond = %+v", c)
	}
	if !q.Distinct {
		t.Error("joined plain listing should be distinct")
	}
}

func TestParseValueWithHeadNoun(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students in the Computer Science department")
	if len(q.Conds) != 1 || q.Conds[0].Value.Str() != "Computer Science" {
		t.Errorf("query = %s", q)
	}
}

func TestParseNumericComparison(t *testing.T) {
	g := uniGrammar(t)
	for _, phrase := range []string{
		"students with gpa over 3.5",
		"students whose gpa is above 3.5",
		"students with gpa greater than 3.5",
		"students whose gpa exceeds 3.5",
	} {
		q := parseBest(t, g, phrase)
		if q.Entity != "students" || len(q.Conds) != 1 {
			t.Fatalf("%q -> %s", phrase, q)
		}
		c := q.Conds[0]
		if c.Field.Column != "gpa" || c.Op != lexicon.Gt {
			t.Errorf("%q -> cond %+v", phrase, c)
		}
		if f, _ := c.Value.AsFloat(); f != 3.5 {
			t.Errorf("%q -> value %v", phrase, c.Value)
		}
	}
}

func TestParseComparisonDirections(t *testing.T) {
	g := uniGrammar(t)
	cases := map[string]lexicon.CompareOp{
		"instructors with salary under 50000":       lexicon.Lt,
		"instructors with salary at least 50000":    lexicon.Ge,
		"instructors with salary at most 50000":     lexicon.Le,
		"instructors whose salary is exactly 50000": lexicon.Eq,
	}
	for phrase, want := range cases {
		q := parseBest(t, g, phrase)
		if len(q.Conds) != 1 || q.Conds[0].Op != want {
			t.Errorf("%q -> %s (want op %v)", phrase, q, want)
		}
	}
}

func TestParseScaledNumber(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "countries with population over 100 million")
	if len(q.Conds) != 1 {
		t.Fatalf("query = %s", q)
	}
	if f, _ := q.Conds[0].Value.AsFloat(); f != 1e8 {
		t.Errorf("value = %v", q.Conds[0].Value)
	}
}

func TestParseSpelledNumber(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students in year three")
	if len(q.Conds) != 1 {
		t.Fatalf("query = %s", q)
	}
	if f, _ := q.Conds[0].Value.AsFloat(); f != 3 {
		t.Errorf("value = %v", q.Conds[0].Value)
	}
}

func TestParseBetween(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "instructors with salary between 50000 and 70000")
	if len(q.Conds) != 1 || !q.Conds[0].Between {
		t.Fatalf("query = %s", q)
	}
}

func TestParseNegation(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students not in History")
	if len(q.Conds) != 1 || !q.Conds[0].Negated {
		t.Fatalf("query = %s", q)
	}
	q = parseBest(t, g, "students without grade F")
	if len(q.Conds) != 1 || !q.Conds[0].Negated || q.Conds[0].Value.Str() != "F" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseCount(t *testing.T) {
	g := uniGrammar(t)
	for _, phrase := range []string{
		"how many students are in Computer Science",
		"the number of students in Computer Science",
		"count of students in Computer Science",
	} {
		q := parseBest(t, g, phrase)
		if len(q.Outputs) != 1 || !q.Outputs[0].CountStar {
			t.Fatalf("%q -> %s", phrase, q)
		}
		if len(q.Conds) != 1 {
			t.Errorf("%q -> conds %v", phrase, q.Conds)
		}
	}
}

func TestParseAggregate(t *testing.T) {
	g := uniGrammar(t)
	cases := map[string]lexicon.Agg{
		"what is the average salary of instructors": lexicon.Avg,
		"the total budget of departments":           lexicon.Sum,
		"the maximum gpa of students":               lexicon.Max,
		"minimum salary of instructors":             lexicon.Min,
	}
	for phrase, want := range cases {
		q := parseBest(t, g, phrase)
		if len(q.Outputs) != 1 || q.Outputs[0].Agg != want {
			t.Errorf("%q -> %s (want %v)", phrase, q, want)
		}
	}
}

func TestParseAggregateWithCondition(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "average salary of instructors in Computer Science")
	if q.Outputs[0].Agg != lexicon.Avg || len(q.Conds) != 1 {
		t.Fatalf("query = %s", q)
	}
}

func TestParseGroupBy(t *testing.T) {
	g := uniGrammar(t)
	for _, phrase := range []string{
		"average salary of instructors per department",
		"average salary of instructors by department",
		"average salary of instructors for each department",
	} {
		q := parseBest(t, g, phrase)
		if len(q.GroupBy) != 1 || q.GroupBy[0].Table != "departments" {
			t.Fatalf("%q -> %s", phrase, q)
		}
	}
}

func TestParseGroupByColumn(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "total population of countries per continent")
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "continent" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseSuperlativeWithColumn(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "which country has the largest population")
	if q.Entity != "countries" || q.Order == nil {
		t.Fatalf("query = %s", q)
	}
	if q.Order.Field.Column != "population" || !q.Order.Desc || q.Order.Limit != 1 {
		t.Errorf("order = %+v", q.Order)
	}
}

func TestParseSuperlativeHint(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "the longest river")
	if q.Entity != "rivers" || q.Order == nil || q.Order.Field.Column != "length" {
		t.Fatalf("query = %s", q)
	}
	q = parseBest(t, g, "the shortest river")
	if q.Order == nil || q.Order.Desc {
		t.Fatalf("query = %s", q)
	}
}

func TestParseSuperlativeAmbiguity(t *testing.T) {
	g := geoGrammar(t)
	// "largest country" is ambiguous among area/population/gdp; the
	// grammar resolves to the first numeric attribute with a penalty.
	q := parseBest(t, g, "the largest country")
	if q.Order == nil || q.Order.Field.Column != "area" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseSuperlativeByColumn(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "the largest country by gdp")
	if q.Order == nil || q.Order.Field.Column != "gdp" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseMostRelated(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "which department has the most students")
	if q.Entity != "departments" || q.Order == nil || !q.Order.CountRows {
		t.Fatalf("query = %s", q)
	}
	if q.Order.CountTable != "students" || !q.Order.Desc {
		t.Errorf("order = %+v", q.Order)
	}
}

func TestParseTopN(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "top 5 instructors by salary")
	if q.Order == nil || q.Order.Limit != 5 || !q.Order.Desc || q.Order.Field.Column != "salary" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseOrderMod(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students in Computer Science sorted by gpa descending")
	if q.Order == nil || !q.Order.Desc || q.Order.Field.Column != "gpa" {
		t.Fatalf("query = %s", q)
	}
	if len(q.Conds) != 1 {
		t.Errorf("conds = %v", q.Conds)
	}
}

func TestParseHavingCount(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students with more than 2 enrollments")
	if q.Having == nil || q.Having.CountTable != "enrollments" || q.Having.Op != lexicon.Gt {
		t.Fatalf("query = %s", q)
	}
	if q.Having.Value != 2 {
		t.Errorf("having = %+v", q.Having)
	}
}

func TestParseNestedAverage(t *testing.T) {
	g := uniGrammar(t)
	for _, phrase := range []string{
		"instructors with salary above the average",
		"instructors whose salary is higher than the average salary",
	} {
		q := parseBest(t, g, phrase)
		if q.Sub == nil || q.Sub.Agg != lexicon.Avg || q.Sub.Op != lexicon.Gt {
			t.Fatalf("%q -> %s", phrase, q)
		}
		if q.Sub.Field.Column != "salary" || q.Sub.SubField.Column != "salary" {
			t.Errorf("%q -> sub %+v", phrase, q.Sub)
		}
	}
}

func TestParseNestedValueComparison(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "rivers longer than the Rhine")
	if q.Sub == nil {
		t.Fatalf("query = %s", q)
	}
	if q.Sub.Field.Column != "length" || q.Sub.Op != lexicon.Gt {
		t.Errorf("sub = %+v", q.Sub)
	}
	if len(q.Sub.SubConds) != 1 || q.Sub.SubConds[0].Value.Str() != "Rhine" {
		t.Errorf("subconds = %+v", q.Sub.SubConds)
	}
}

func TestParseNestedValueWithColumn(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "cities with population larger than Tokyo")
	if q.Sub == nil || q.Sub.Field.Column != "population" {
		t.Fatalf("query = %s", q)
	}
	if q.Sub.SubConds[0].Value.Str() != "Tokyo" {
		t.Errorf("sub = %+v", q.Sub)
	}
}

func TestParseProjection(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "what is the budget of the Physics department")
	if len(q.Outputs) != 1 || q.Outputs[0].Field.Column != "budget" {
		t.Fatalf("query = %s", q)
	}
	if len(q.Conds) != 1 || q.Conds[0].Value.Str() != "Physics" {
		t.Errorf("conds = %+v", q.Conds)
	}
}

func TestParseMultiProjection(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "show the name and salary of instructors in Computer Science")
	if len(q.Outputs) != 2 {
		t.Fatalf("query = %s", q)
	}
	if q.Outputs[0].Field.Column != "name" || q.Outputs[1].Field.Column != "salary" {
		t.Errorf("outputs = %+v", q.Outputs)
	}
}

func TestParseQuotedName(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, `instructors named "Grace Hopper"`)
	if len(q.Conds) != 1 || q.Conds[0].Value.Str() != "Grace Hopper" {
		t.Fatalf("query = %s", q)
	}
	if q.Conds[0].Field.Column != "name" || q.Conds[0].Field.Table != "instructors" {
		t.Errorf("cond = %+v", q.Conds[0])
	}
}

func TestParseLinkingWords(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students who are enrolled in Computer Science")
	if q.Entity != "students" || len(q.Conds) != 1 {
		t.Fatalf("query = %s", q)
	}
}

func TestParseQuestionMarkAndPolite(t *testing.T) {
	g := uniGrammar(t)
	if parseBest(t, g, "please list the departments?") == nil {
		t.Fatal("unreachable")
	}
}

func TestParseRejectsGibberish(t *testing.T) {
	g := uniGrammar(t)
	for _, phrase := range []string{
		"colorless green ideas sleep furiously",
		"what time is it",
		"delete all students", // "delete" is not a known opener
		"",
	} {
		if cands := g.Parse(strutil.Tokenize(phrase)); len(cands) != 0 {
			t.Errorf("%q parsed to %s", phrase, cands[0].Query)
		}
	}
}

func TestParseTypeIncompatibleRejected(t *testing.T) {
	g := uniGrammar(t)
	// "with name over 3" compares a text column to a number; every such
	// candidate must be filtered, so either no parse or no condition on
	// name remains.
	cands := g.Parse(strutil.Tokenize("students with name over 3"))
	for _, cand := range cands {
		for _, c := range cand.Query.Conds {
			if c.Field.Column == "name" && c.Value.IsNumeric() {
				t.Errorf("type-incompatible condition survived: %s", cand.Query)
			}
		}
	}
}

func TestParseAmbiguityPreserved(t *testing.T) {
	g := geoGrammar(t)
	// "population" names both countries.population and
	// cities.population: both candidates must exist.
	cands := g.Parse(strutil.Tokenize("the population of Brazil"))
	tables := map[string]bool{}
	for _, cand := range cands {
		for _, o := range cand.Query.Outputs {
			tables[o.Field.Table] = true
		}
	}
	if !tables["countries"] {
		t.Errorf("countries.population reading missing (%d candidates)", len(cands))
	}
}

func TestParseDeterministic(t *testing.T) {
	g := uniGrammar(t)
	q := "average salary of instructors in Computer Science per department"
	first := g.Parse(strutil.Tokenize(q))
	for i := 0; i < 5; i++ {
		again := g.Parse(strutil.Tokenize(q))
		if len(again) != len(first) {
			t.Fatal("nondeterministic candidate count")
		}
		for j := range again {
			if again[j].Query.String() != first[j].Query.String() {
				t.Fatal("nondeterministic candidate order")
			}
		}
	}
}

func TestRuleGroupGating(t *testing.T) {
	idx := semindex.Build(dataset.University(1), semindex.DefaultOptions())
	coreOnly := New(idx, Options{Groups: GCore})
	if cands := coreOnly.Parse(strutil.Tokenize("how many students")); len(cands) != 0 {
		t.Errorf("aggregate parsed with GCore only: %s", cands[0].Query)
	}
	if cands := coreOnly.Parse(strutil.Tokenize("students in Computer Science")); len(cands) == 0 {
		t.Error("core selection failed with GCore")
	}
	withAgg := New(idx, Options{Groups: GCore | GAgg})
	if cands := withAgg.Parse(strutil.Tokenize("how many students")); len(cands) == 0 {
		t.Error("aggregate failed with GAgg enabled")
	}
}

func TestGroupOrderCoversAll(t *testing.T) {
	var total GroupSet
	for _, g := range GroupOrder {
		total |= g.Set
	}
	if total != AllGroups() {
		t.Error("GroupOrder does not cover AllGroups")
	}
	if New(semindex.Build(dataset.University(1), semindex.DefaultOptions()), Options{}).opts.Groups != AllGroups() {
		t.Error("zero Options must default to all groups")
	}
}

// TestEndToEndExecution closes the loop: parse -> SQL -> execute.
func TestEndToEndExecution(t *testing.T) {
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	cases := []struct {
		q        string
		wantRows int // -1 = any non-zero
	}{
		{"how many students", 1},
		{"how many students in Computer Science", 1},
		{"students with gpa over 3.9", -1},
		{"which department has the most students", 1},
		{"average salary of instructors per department", 6},
		{"top 3 instructors by salary", 3},
	}
	for _, c := range cases {
		best := parseBest(t, g, c.q)
		stmt, err := iql.ToSQL(best, db.Schema)
		if err != nil {
			t.Errorf("%q: ToSQL: %v", c.q, err)
			continue
		}
		res, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Errorf("%q: exec: %v (sql: %s)", c.q, err, stmt)
			continue
		}
		if c.wantRows >= 0 && len(res.Rows) != c.wantRows {
			t.Errorf("%q: rows = %d, want %d (sql: %s)", c.q, len(res.Rows), c.wantRows, stmt)
		}
		if c.wantRows == -1 && len(res.Rows) == 0 {
			t.Errorf("%q: no rows (sql: %s)", c.q, stmt)
		}
	}
}

func TestHowManyCountValue(t *testing.T) {
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	best := parseBest(t, g, "how many students are in Computer Science")
	stmt, err := iql.ToSQL(best, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 30 {
		t.Errorf("count = %v (sql %s)", res.Rows[0][0], stmt)
	}
}

var _ = store.Null // silence potential unused import during refactors

func BenchmarkParseSimple(b *testing.B) {
	g := uniGrammar(b)
	toks := strutil.Tokenize("students with gpa over 3.5")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Parse(toks)
	}
}

func BenchmarkParseComplex(b *testing.B) {
	g := uniGrammar(b)
	toks := strutil.Tokenize("average salary of instructors in Computer Science per department")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Parse(toks)
	}
}

func TestParseValueDisjunction(t *testing.T) {
	g := uniGrammar(t)
	for _, phrase := range []string{
		"students in Computer Science or Mathematics",
		"students in Computer Science and Mathematics",
	} {
		q := parseBest(t, g, phrase)
		if len(q.Conds) != 1 || len(q.Conds[0].In) != 2 {
			t.Fatalf("%q -> %s", phrase, q)
		}
		if q.Conds[0].In[0].Str() != "Computer Science" || q.Conds[0].In[1].Str() != "Mathematics" {
			t.Errorf("%q -> in = %v", phrase, q.Conds[0].In)
		}
	}
}

func TestParseValueDisjunctionExecutes(t *testing.T) {
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	best := parseBest(t, g, "how many students in Computer Science or Mathematics")
	stmt, err := iql.ToSQL(best, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != 55 { // 30 CS + 25 Math
		t.Errorf("count = %v (sql %s)", res.Rows[0][0], stmt)
	}
}

func TestParseThreeWayDisjunction(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "students in Computer Science or Mathematics or Physics")
	if len(q.Conds) != 1 || len(q.Conds[0].In) != 3 {
		t.Fatalf("query = %s", q)
	}
}

func TestParseHowManyColumnProjection(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "how many people live in China")
	if len(q.Outputs) != 1 || q.Outputs[0].CountStar {
		t.Fatalf("query = %s", q)
	}
	if q.Outputs[0].Field.Column != "population" {
		t.Errorf("output = %+v", q.Outputs[0])
	}
	if len(q.Conds) != 1 || q.Conds[0].Value.Str() != "China" {
		t.Errorf("conds = %+v", q.Conds)
	}
}

func TestParseMostAdjective(t *testing.T) {
	idx := semindex.Build(dataset.Sales(1), semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	q := parseBest(t, g, "the most expensive product")
	if q.Order == nil || q.Order.Field.Column != "price" || !q.Order.Desc {
		t.Fatalf("query = %s", q)
	}
	q = parseBest(t, g, "the least expensive product")
	if q.Order == nil || q.Order.Desc {
		t.Fatalf("query = %s", q)
	}
}

func TestParsePredicateSuperlative(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "which river is the longest")
	if q.Entity != "rivers" || q.Order == nil || q.Order.Field.Column != "length" {
		t.Fatalf("query = %s", q)
	}
	q = parseBest(t, g, "which mountain is the tallest")
	if q.Order == nil || q.Order.Field.Column != "height" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseColumnlessNestedAverage(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, "instructors earning more than the average salary")
	if q.Sub == nil || q.Sub.Field.Column != "salary" || q.Sub.Op != lexicon.Gt {
		t.Fatalf("query = %s", q)
	}
	if q.Sub.Field.Table != "instructors" {
		t.Errorf("outer field not re-anchored: %+v", q.Sub.Field)
	}
}

func TestParseContains(t *testing.T) {
	g := uniGrammar(t)
	q := parseBest(t, g, `courses containing "Intro"`)
	if len(q.Conds) != 1 || q.Conds[0].Like != "%Intro%" {
		t.Fatalf("query = %s conds=%+v", q, q.Conds)
	}
	if q.Conds[0].Field.Column != "title" {
		t.Errorf("default column = %+v (want the display column)", q.Conds[0].Field)
	}
	q = parseBest(t, g, `instructors whose name starts with "Ada"`)
	if len(q.Conds) != 1 || q.Conds[0].Like != "Ada%" {
		t.Fatalf("query = %s", q)
	}
	q = parseBest(t, g, `courses ending with "Systems"`)
	if len(q.Conds) != 1 || q.Conds[0].Like != "%Systems" {
		t.Fatalf("query = %s", q)
	}
}

func TestParseContainsExecutes(t *testing.T) {
	// Scale 2 generates "Introduction to ..." course titles.
	db := dataset.University(2)
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	best := parseBest(t, g, `courses containing "Intro"`)
	stmt, err := iql.ToSQL(best, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !strings.Contains(row[0].Str(), "Intro") {
			t.Errorf("non-matching row %v", row)
		}
	}
	if len(res.Rows) == 0 {
		t.Error("no Intro courses found")
	}
}

func TestParseSuperlativeWithCondition(t *testing.T) {
	g := geoGrammar(t)
	q := parseBest(t, g, "the largest country in Asia")
	if q.Order == nil || q.Order.Field.Column != "area" || q.Order.Limit != 1 {
		t.Fatalf("query = %s", q)
	}
	if len(q.Conds) != 1 || q.Conds[0].Value.Str() != "Asia" {
		t.Fatalf("condition lost: %s", q)
	}
	q = parseBest(t, g, "which city in Japan has the biggest population")
	if q.Order == nil || len(q.Conds) != 1 || q.Conds[0].Value.Str() != "Japan" {
		t.Fatalf("query = %s", q)
	}
}
