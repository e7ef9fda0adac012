package semindex

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lexicon"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/strutil"
)

func uniIndex(t testing.TB, opts Options) *Index {
	t.Helper()
	return Build(dataset.University(1), opts)
}

func annotate(idx *Index, q string) []Annotation {
	return idx.Annotate(strutil.Tokenize(q))
}

// hasAnn reports whether any annotation matches the given predicate.
func hasAnn(anns []Annotation, f func(Annotation) bool) bool {
	for _, a := range anns {
		if f(a) {
			return true
		}
	}
	return false
}

func TestAnnotateTableName(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	anns := annotate(idx, "show all students")
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == TableElem && a.Table == "students" && a.Surface == "students"
	}) {
		t.Errorf("students not annotated: %+v", anns)
	}
}

func TestAnnotateSingular(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	anns := annotate(idx, "which student has the best gpa")
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == TableElem && a.Table == "students"
	}) {
		t.Errorf("singular 'student' not matched: %+v", anns)
	}
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == ColumnElem && a.Column == "gpa" && a.Table == "students"
	}) {
		t.Errorf("gpa column not matched: %+v", anns)
	}
}

func TestAnnotateSynonym(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	anns := annotate(idx, "professors with high pay")
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == TableElem && a.Table == "instructors"
	}) {
		t.Errorf("professor synonym not matched: %+v", anns)
	}
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == ColumnElem && a.Column == "salary"
	}) {
		t.Errorf("pay synonym not matched: %+v", anns)
	}
}

func TestSynonymAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Synonyms = false
	idx := uniIndex(t, opts)
	anns := annotate(idx, "professors with high pay")
	if hasAnn(anns, func(a Annotation) bool { return a.Table == "instructors" }) {
		t.Errorf("synonym matched with synonyms disabled: %+v", anns)
	}
}

func TestAnnotateMultiWordColumn(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	anns := annotate(idx, "average grade point average of students")
	var found *Annotation
	for i := range anns {
		if anns[i].Kind == ColumnElem && anns[i].Column == "gpa" && anns[i].Len() == 3 {
			found = &anns[i]
		}
	}
	if found == nil {
		t.Fatalf("multi-word synonym not matched: %+v", anns)
	}
	if found.Surface != "grade point average" {
		t.Errorf("surface = %q", found.Surface)
	}
}

func TestAnnotateValue(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	anns := annotate(idx, "students in Computer Science")
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == ValueElem && a.Table == "departments" && a.Column == "name" &&
			a.Value.Str() == "Computer Science" && a.Len() == 2
	}) {
		t.Errorf("value not annotated: %+v", anns)
	}
}

func TestValueAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Values = false
	idx := uniIndex(t, opts)
	anns := annotate(idx, "students in Computer Science")
	if hasAnn(anns, func(a Annotation) bool { return a.Kind == ValueElem }) {
		t.Errorf("value matched with value index disabled: %+v", anns)
	}
}

func TestSingleLetterValueCaseGate(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	// "A" as a grade must match only when upper-case in the question.
	upper := annotate(idx, "students with grade A")
	if !hasAnn(upper, func(a Annotation) bool {
		return a.Kind == ValueElem && a.Column == "grade" && a.Value.Str() == "A"
	}) {
		t.Errorf("upper-case grade not matched: %+v", upper)
	}
	lower := annotate(idx, "show a student")
	if hasAnn(lower, func(a Annotation) bool {
		return a.Kind == ValueElem && a.Column == "grade"
	}) {
		t.Errorf("article matched as grade: %+v", lower)
	}
}

func TestAnnotationsSorted(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	anns := annotate(idx, "salary of instructors in Computer Science")
	for i := 1; i < len(anns); i++ {
		if anns[i].Start < anns[i-1].Start {
			t.Fatalf("annotations not sorted by start: %+v", anns)
		}
	}
}

func TestStemFallback(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	// "enrolled" stems to "enrol"... the stem index registers
	// "enrollments" under its stem; "enrollment" matches via singular.
	anns := annotate(idx, "list enrollment records")
	if !hasAnn(anns, func(a Annotation) bool { return a.Table == "enrollments" }) {
		t.Errorf("singular table form not matched: %+v", anns)
	}
}

func TestCorrectTypos(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	toks := strutil.Tokenize("show studnets with salery over 50000")
	fixed, fixes := idx.Correct(toks, 2)
	if len(fixes) != 2 {
		t.Fatalf("fixes = %+v", fixes)
	}
	if fixed[1].Lower != "students" {
		t.Errorf("studnets -> %q", fixed[1].Lower)
	}
	if fixed[3].Lower != "salary" {
		t.Errorf("salery -> %q", fixed[3].Lower)
	}
	// Original tokens untouched.
	if toks[1].Lower != "studnets" {
		t.Error("input mutated")
	}
}

func TestCorrectLeavesKnownAndNumbers(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	toks := strutil.Tokenize("students with gpa over 3.5")
	fixed, fixes := idx.Correct(toks, 2)
	if len(fixes) != 0 {
		t.Errorf("unexpected fixes: %+v", fixes)
	}
	for i := range toks {
		if fixed[i] != toks[i] {
			t.Errorf("token %d changed", i)
		}
	}
	// maxDist 0 disables correction entirely.
	_, fixes = idx.Correct(strutil.Tokenize("studnets"), 0)
	if fixes != nil {
		t.Error("maxDist 0 should disable correction")
	}
}

// TestCorrectCopiesOnFirstFix: Correct copies the tokens only once it
// has a repair to write. A clean question gets its own slice back, and
// a question repaired twice, after clean words, gets a copy carrying
// those words and both repairs while its input stays as tokenized.
func TestCorrectCopiesOnFirstFix(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	clean := strutil.Tokenize("students with gpa over 3.5")
	if fixed, _ := idx.Correct(clean, 2); &fixed[0] != &clean[0] || len(fixed) != len(clean) {
		t.Error("a question with nothing to repair did not get its input slice back")
	}

	toks := strutil.Tokenize("show students with salery over 50000 in Mathmatics")
	orig := slices.Clone(toks)
	fixed, fixes := idx.Correct(toks, 2)
	if len(fixes) != 2 || fixed[3].Lower != "salary" || fixed[7].Lower != "mathematics" {
		t.Fatalf("fixed = %v, fixes = %+v", fixed, fixes)
	}
	if !slices.Equal(toks, orig) {
		t.Errorf("input mutated: %v", toks)
	}
	if fixed[0] != orig[0] || fixed[6] != orig[6] {
		t.Errorf("clean words did not carry into the copy: %v", fixed)
	}
}

func TestCorrectValueWords(t *testing.T) {
	idx := Build(dataset.Geo(), DefaultOptions())
	toks := strutil.Tokenize("cities in Germny")
	fixed, fixes := idx.Correct(toks, 2)
	if len(fixes) != 1 || fixed[2].Lower != "germany" {
		t.Errorf("fixed = %v, fixes = %+v", fixed, fixes)
	}
}

func TestColumnType(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	if ct, ok := idx.ColumnType("students", "gpa"); !ok || ct != schema.Float {
		t.Errorf("gpa type = %v,%v", ct, ok)
	}
	if _, ok := idx.ColumnType("students", "nope"); ok {
		t.Error("unknown column should fail")
	}
	if _, ok := idx.ColumnType("nope", "x"); ok {
		t.Error("unknown table should fail")
	}
}

func TestIndexSizes(t *testing.T) {
	idx := uniIndex(t, DefaultOptions())
	if idx.NameCount() == 0 || idx.ValueCount() == 0 {
		t.Errorf("index sizes: names=%d values=%d", idx.NameCount(), idx.ValueCount())
	}
	noVals := uniIndex(t, Options{Synonyms: true, Stems: true})
	if noVals.ValueCount() != 0 {
		t.Error("value index built despite Values=false")
	}
}

func TestFreeTextColumnsSkipped(t *testing.T) {
	// Build a table with too many distinct non-NameLike values; it must
	// not be indexed.
	s := schema.MustNew("big", []*schema.Table{
		{Name: "notes", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "body", Type: schema.Text}, // not NameLike
		}},
	}, nil)
	db := store.NewDB(s)
	for i := 0; i < maxValueDistinct+10; i++ {
		db.MustInsert("notes", store.Int(int64(i)), store.Text(store.Int(int64(i)).String()+"note"))
	}
	idx := Build(db, DefaultOptions())
	if idx.ValueCount() != 0 {
		t.Errorf("free-text column was indexed: %d values", idx.ValueCount())
	}
}

func TestGeoAnnotations(t *testing.T) {
	idx := Build(dataset.Geo(), DefaultOptions())
	anns := annotate(idx, "what is the longest river in Brazil")
	if !hasAnn(anns, func(a Annotation) bool { return a.Kind == TableElem && a.Table == "rivers" }) {
		t.Errorf("river table missing: %+v", anns)
	}
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == ValueElem && a.Table == "countries" && a.Value.Str() == "Brazil"
	}) {
		t.Errorf("Brazil value missing: %+v", anns)
	}
	anns = annotate(idx, "population of New York")
	if !hasAnn(anns, func(a Annotation) bool {
		return a.Kind == ValueElem && a.Value.Str() == "New York" && a.Len() == 2
	}) {
		t.Errorf("multi-word city missing: %+v", anns)
	}
}

func BenchmarkAnnotate(b *testing.B) {
	idx := Build(dataset.University(1), DefaultOptions())
	toks := strutil.Tokenize("average salary of instructors in the Computer Science department")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Annotate(toks)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	db := dataset.University(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(db, DefaultOptions())
	}
}

// TestValueIndexFromSegments: Build reads each sealed segment's
// dictionary (or its plain strings) and the tail's strings, and must
// index exactly the values a pass over the decoded rows would — the
// same distinct-value cap, the same NULLs left out — whatever the seal
// boundary.
func TestValueIndexFromSegments(t *testing.T) {
	entries := func(idx *Index) map[string]bool {
		set := map[string]bool{}
		for key, es := range idx.values {
			for _, e := range es {
				set[key+"|"+e.table+"."+e.column+"|"+e.value.Key()] = true
			}
		}
		return set
	}
	fromRows := func(db *store.DB) *Index {
		ref := &Index{Vocab: lexicon.NewVocabulary(), values: map[string][]valueEntry{}}
		sn := db.Snapshot()
		for _, mt := range db.Schema.Tables {
			rows := sn.Table(mt.Name).Rows()
			for ci, c := range mt.Columns {
				if c.Type != schema.Text {
					continue
				}
				distinct := map[string]bool{}
				for _, row := range rows {
					if !row[ci].IsNull() {
						distinct[row[ci].Str()] = true
					}
				}
				if !c.NameLike && len(distinct) > maxValueDistinct {
					continue
				}
				for s := range distinct {
					ref.registerValue(s, valueEntry{table: mt.Name, column: c.Name, value: store.Text(s)})
				}
			}
		}
		return ref
	}
	for _, db := range []*store.DB{dataset.University(1), dataset.Telemetry(70_000)} {
		for _, segRows := range []int{0, 64, 7} {
			for _, mt := range db.Schema.Tables {
				db.Table(mt.Name).SetSegmentRows(segRows)
			}
			got, want := entries(Build(db, DefaultOptions())), entries(fromRows(db))
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("%s at %d rows a segment: %d value entries, %d from rows", db.Schema.Name, segRows, len(got), len(want))
			}
			for e := range want {
				if !got[e] {
					t.Fatalf("%s at %d rows a segment: %s missing", db.Schema.Name, segRows, e)
				}
			}
		}
	}
}
