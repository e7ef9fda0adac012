package lexicon

import (
	"testing"
	"testing/quick"
)

func TestSingular(t *testing.T) {
	cases := map[string]string{
		"students":    "student",
		"cities":      "city",
		"countries":   "country",
		"courses":     "course",
		"classes":     "class",
		"boxes":       "box",
		"churches":    "church",
		"children":    "child",
		"people":      "person",
		"series":      "series",
		"gpa":         "gpa",
		"salary":      "salary",
		"salaries":    "salary",
		"status":      "status",
		"statuses":    "status",
		"departments": "department",
		"rivers":      "river",
		"mountains":   "mountain",
		"analysis":    "analysis",
		"orders":      "order",
		"quantities":  "quantity",
	}
	for in, want := range cases {
		if got := Singular(in); got != want {
			t.Errorf("Singular(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPlural(t *testing.T) {
	cases := map[string]string{
		"student": "students",
		"city":    "cities",
		"class":   "classes",
		"box":     "boxes",
		"church":  "churches",
		"child":   "children",
		"person":  "people",
		"series":  "series",
		"day":     "days",
		"country": "countries",
	}
	for in, want := range cases {
		if got := Plural(in); got != want {
			t.Errorf("Plural(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPluralSingularRoundTrip(t *testing.T) {
	nouns := []string{"student", "city", "course", "department", "river",
		"order", "product", "region", "instructor", "country", "mountain"}
	for _, n := range nouns {
		if got := Singular(Plural(n)); got != n {
			t.Errorf("Singular(Plural(%q)) = %q", n, got)
		}
	}
}

func TestCompareOpString(t *testing.T) {
	if Eq.String() != "=" || Ge.String() != ">=" || Ne.String() != "<>" {
		t.Error("CompareOp string forms wrong")
	}
}

func TestAggString(t *testing.T) {
	cases := map[Agg]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX", NoAgg: ""}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", in, got, want)
		}
	}
}

func TestClosedClasses(t *testing.T) {
	if !IsStopword("the") || IsStopword("salary") {
		t.Error("stopword classification wrong")
	}
	if !IsCommandVerb("show") || IsCommandVerb("salary") {
		t.Error("command verb classification wrong")
	}
	if !WhWords["which"] || WhWords["show"] {
		t.Error("wh-word classification wrong")
	}
	if Comparatives["over"] != Gt || Comparatives["under"] != Lt {
		t.Error("comparative mapping wrong")
	}
	if ComparativeAdjs["more"] != Gt || ComparativeAdjs["fewer"] != Lt {
		t.Error("comparative adjective mapping wrong")
	}
	if Aggregates["average"] != Avg || Aggregates["total"] != Sum {
		t.Error("aggregate mapping wrong")
	}
	if !Negations["without"] || Negations["with"] {
		t.Error("negation classification wrong")
	}
	if !GroupMarkers["per"] {
		t.Error("group marker classification wrong")
	}
}

func TestSuperlatives(t *testing.T) {
	if s := Superlatives["largest"]; !s.Desc {
		t.Error("largest should be descending")
	}
	if s := Superlatives["smallest"]; s.Desc {
		t.Error("smallest should be ascending")
	}
	if s := Superlatives["longest"]; s.Hint != "length" {
		t.Errorf("longest hint = %q", s.Hint)
	}
	if s := Superlatives["cheapest"]; s.Hint != "price" || s.Desc {
		t.Errorf("cheapest = %+v", s)
	}
}

func TestVocabularyBasic(t *testing.T) {
	v := NewVocabulary()
	v.Add("salary", "student", "department", "population")
	if !v.Contains("salary") {
		t.Error("Contains failed after Add")
	}
	if v.Contains("missing") {
		t.Error("Contains true for unknown word")
	}
	if v.Len() != 4 {
		t.Errorf("Len = %d", v.Len())
	}
	// Duplicate adds are idempotent.
	v.Add("salary")
	if v.Len() != 4 {
		t.Errorf("Len after duplicate = %d", v.Len())
	}
	words := v.Words()
	if len(words) != 4 || words[0] != "department" {
		t.Errorf("Words = %v", words)
	}
}

func TestVocabularyCorrect(t *testing.T) {
	v := NewVocabulary()
	v.Add("salary", "student", "department", "population", "instructor")
	cases := []struct {
		in   string
		dist int
		want string
		ok   bool
	}{
		{"salary", 2, "salary", true},        // exact
		{"salery", 2, "salary", true},        // substitution
		{"studnet", 2, "student", true},      // transposition
		{"populaton", 2, "population", true}, // deletion
		{"xyzzyq", 2, "", false},             // hopeless
		{"de", 2, "", false},                 // too short to correct
		{"salery", 1, "salary", true},        // one typo within 1
		{"slr", 1, "", false},                // a length gap of 3 cannot be within 1
		{"populati", 2, "population", true},  // a length gap of exactly 2 is within 2
		{"salary", 0, "salary", true},        // a known word within 0
		{"salarys", 0, "", false},            // one edit is not within 0
		{"salar\u2026", 1, "salary", true},   // the length bound counts runes, not bytes
	}
	for _, c := range cases {
		got, ok := v.Correct(c.in, c.dist)
		if ok != c.ok || got != c.want {
			t.Errorf("Correct(%q, %d) = %q,%v want %q,%v", c.in, c.dist, got, ok, c.want, c.ok)
		}
	}
}

func TestVocabularyCorrectDeterministic(t *testing.T) {
	v := NewVocabulary()
	v.Add("cat", "bat", "rat")
	first, ok := v.Correct("dat", 1)
	if !ok {
		t.Fatal("no correction")
	}
	for i := 0; i < 10; i++ {
		got, _ := v.Correct("dat", 1)
		if got != first {
			t.Fatalf("nondeterministic correction: %q vs %q", got, first)
		}
	}
	// Ties broken lexicographically (all same distance and no Soundex win).
	if first != "bat" {
		t.Errorf("tie-break gave %q, want %q", first, "bat")
	}
}

func TestVocabularyCorrectPrefersCloser(t *testing.T) {
	v := NewVocabulary()
	v.Add("salaries", "salary")
	got, ok := v.Correct("salarie", 2)
	if !ok || got != "salaries" {
		t.Errorf("Correct(salarie) = %q,%v; want salaries (distance 1)", got, ok)
	}
}

func TestVocabularyProperties(t *testing.T) {
	// A vocabulary always corrects its own members to themselves.
	selfCorrect := func(w string) bool {
		if len(w) == 0 || len(w) > 12 {
			return true
		}
		v := NewVocabulary()
		v.Add(w)
		got, ok := v.Correct(w, 2)
		return ok && got == w
	}
	if err := quick.Check(selfCorrect, nil); err != nil {
		t.Error(err)
	}
}

func TestFunctionWordsCoverGrammarLiterals(t *testing.T) {
	words := map[string]bool{}
	for _, w := range FunctionWords() {
		words[w] = true
	}
	// Spot-check the words the grammar depends on for correction.
	for _, w := range []string{
		"named", "called", "between", "sorted", "descending", "than",
		"average", "most", "per", "without", "the", "show", "which",
	} {
		if !words[w] {
			t.Errorf("FunctionWords missing %q", w)
		}
	}
	if len(words) < 100 {
		t.Errorf("suspiciously small function-word set: %d", len(words))
	}
}

func TestAdjHints(t *testing.T) {
	if AdjHints["expensive"] != "price" || AdjHints["populous"] != "population" {
		t.Error("adjective hints wrong")
	}
	if _, ok := AdjHints["purple"]; ok {
		t.Error("non-dimensional adjective hinted")
	}
}
