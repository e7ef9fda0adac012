package grammar

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/iql"
	"repro/internal/semindex"
	"repro/internal/strutil"
)

// TestParseNeverPanics drives the grammar with random token soup drawn
// from the full question vocabulary: schema terms, values, operators
// and junk. Any panic or non-finalizable query is a bug.
func TestParseNeverPanics(t *testing.T) {
	idx := semindex.Build(dataset.University(1), semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	words := []string{
		"show", "students", "instructors", "departments", "gpa",
		"salary", "over", "under", "3.5", "50000", "the", "in",
		"Computer", "Science", "average", "how", "many", "per",
		"with", "highest", "most", "not", "between", "and", "or",
		"than", "more", "top", "5", "xyzzy", "?", "named", "grade",
	}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		length := int(n % 12)
		parts := make([]string, length)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		question := strings.Join(parts, " ")
		cands := g.Parse(strutil.Tokenize(question))
		for _, c := range cands {
			if c.Query == nil || c.Query.Entity == "" {
				t.Logf("bad candidate for %q: %+v", question, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParseUpdateNeverPanics fuzzes the fragment parser against a
// context query.
func TestParseUpdateNeverPanics(t *testing.T) {
	idx := semindex.Build(dataset.University(1), semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	prev := &iql.Query{Entity: "students"}
	words := []string{
		"only", "those", "with", "gpa", "over", "3.5", "how", "many",
		"sort", "them", "by", "salary", "what", "about", "Mathematics",
		"show", "their", "names", "group", "department", "junk",
	}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		length := int(n % 8)
		parts := make([]string, length)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		cands := g.ParseUpdate(g.Prepare(strutil.Tokenize(strings.Join(parts, " "))), prev)
		for _, c := range cands {
			if c.Query == nil || c.Query.Entity == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAllCandidatesTranslate asserts every candidate the grammar emits
// for well-formed questions survives SQL generation — the grammar must
// not hand the interpreter junk.
func TestAllCandidatesTranslate(t *testing.T) {
	db := dataset.Geo()
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	questions := []string{
		"the population of Brazil",
		"cities in China",
		"the largest country",
		"rivers longer than the Rhine",
		"total population of countries per continent",
		"which country has the most cities",
	}
	for _, q := range questions {
		for _, cand := range g.Parse(strutil.Tokenize(q)) {
			if _, err := iql.ToSQL(cand.Query, db.Schema); err != nil {
				// Candidates whose tables do not connect are allowed to
				// fail translation; anything else is a grammar bug.
				if !strings.Contains(err.Error(), "join path") {
					t.Errorf("%q: candidate %s failed: %v", q, cand.Query, err)
				}
			}
		}
	}
}

// FuzzParse is the native fuzz entry point for the grammar.
func FuzzParse(f *testing.F) {
	idx := semindex.Build(dataset.University(1), semindex.DefaultOptions())
	g := New(idx, DefaultOptions())
	f.Add("students with gpa over 3.5")
	f.Add("how many instructors are in Physics?")
	f.Add(`instructors named "Ada Lovelace"`)
	f.Add("top 5 ... ( weird ** input")
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 200 {
			return // long garbage only slows the fuzzer down
		}
		cands := g.Parse(strutil.Tokenize(q))
		for _, c := range cands {
			if c.Query == nil || c.Query.Entity == "" {
				t.Fatalf("invalid candidate for %q", q)
			}
		}
	})
}
