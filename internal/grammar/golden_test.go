package grammar_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/grammar"
	"repro/internal/interp"
	"repro/internal/iql"
	"repro/internal/semindex"
	"repro/internal/strutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/candidates.golden from the current grammar")

const goldenPath = "testdata/candidates.golden"

// domain is one bundled dataset's index, built once per test binary.
type domain struct {
	idx *semindex.Index
	g   *grammar.Grammar
}

var domains = sync.OnceValue(func() map[string]domain {
	out := map[string]domain{}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			panic(err)
		}
		idx := semindex.Build(db, semindex.DefaultOptions())
		out[name] = domain{idx: idx, g: grammar.New(idx, grammar.DefaultOptions())}
	}
	return out
})

// item is one parser call of the differential: a full question
// (prev == nil) or a follow-up fragment against the query before it.
type item struct {
	id   string
	dom  string
	toks []strutil.Token
	prev *iql.Query
}

// run parses the item with g and renders the ordered candidate list,
// scores to full float precision; n is the number of candidates.
func (it item) run(g *grammar.Grammar) (out string, n int) {
	var cands []grammar.Candidate
	kind := "parse"
	if it.prev == nil {
		cands = g.Parse(it.toks)
	} else {
		kind = "update"
		cands = g.ParseUpdate(g.Prepare(it.toks), it.prev)
	}
	var b strings.Builder
	texts := make([]string, len(it.toks))
	for i, t := range it.toks {
		texts[i] = t.Text
	}
	fmt.Fprintf(&b, "%s %s %q\n", it.id, kind, strings.Join(texts, " "))
	if it.prev != nil {
		fmt.Fprintf(&b, "  prev %s\n", it.prev)
	}
	for _, c := range cands {
		fmt.Fprintf(&b, "  %s %s\n", strconv.FormatFloat(c.Score, 'g', -1, 64), c.Query)
	}
	return b.String(), len(cands)
}

// extraQuestions reach the rules no corpus question does (ordering,
// having-count, substring matching, quoted names, the rarer comparison
// operators, mass-noun sums, top-N) plus inputs that must yield nothing.
var extraQuestions = []struct{ dom, q string }{
	{"university", "students in Computer Science sorted by gpa descending"},
	{"university", "instructors ordered by salary"},
	{"university", "students with more than 2 enrollments"},
	{"university", "students who have at least 3 enrollments"},
	{"university", "instructors having exactly 1 courses"},
	{"university", `courses containing "Intro"`},
	{"university", `courses ending with "Systems"`},
	{"university", `instructors whose name starts with "Ada"`},
	{"university", `instructors named "Grace Hopper"`},
	{"university", "students whose gpa is at least 3.5"},
	{"university", "students whose gpa is not under 2"},
	{"university", "instructors with salary equal to 90000"},
	{"university", "students with gpa higher than 3"},
	{"university", "students in year three"},
	{"university", "students with name over 3"},
	{"university", "students without grade F"},
	{"university", "top 5 instructors by salary"},
	{"university", "instructors earning more than the average salary"},
	{"university", "students whose gpa is higher than the average gpa of History students"},
	{"university", "please list the departments?"},
	{"university", "colorless green ideas sleep furiously"},
	{"university", "?"},
	{"geo", "how many people live in China"},
	{"geo", "countries with population over 100 million"},
	{"geo", "cities with population larger than Tokyo"},
	{"geo", "rivers longer than the Rhine"},
	{"geo", "which department has the most students"},
	{"geo", "which mountain is the tallest"},
	{"geo", "the first 3 countries by area"},
	{"sales", "how much revenue in each region"},
	{"sales", "the least expensive product"},
	{"sales", "customers with at most 2 orders"},
}

// corpusItems lists every parser call the corpora make: the gold corpus
// of all domains, the same questions with one typo (spell-corrected the
// way the engine does it), extraQuestions, and every dialogue turn.
// Follow-up turns are parsed both ways over one Prepared, as core's ask
// pipeline may read them; the context moves on as it does there.
func corpusItems() []item {
	doms := domains()
	var items []item

	cases := bench.AllCases()
	cases = append(cases, bench.TypoCases(bench.AllCases(), 1)...)
	for i, x := range extraQuestions {
		cases = append(cases, bench.Case{ID: fmt.Sprintf("extra-%d", i+1), Domain: x.dom, Question: x.q})
	}
	for _, cs := range cases {
		toks, _ := doms[cs.Domain].idx.Correct(strutil.Tokenize(cs.Question), 1)
		items = append(items, item{id: cs.ID, dom: cs.Domain, toks: toks})
	}

	for _, dc := range bench.DialogueCorpus() {
		d := doms[dc.Domain]
		var prev *iql.Query
		for i, turn := range dc.Turns {
			toks, _ := d.idx.Correct(strutil.Tokenize(turn), 1)
			id := fmt.Sprintf("%s.%d", dc.ID, i+1)
			items = append(items, item{id: id, dom: dc.Domain, toks: toks})
			p := d.g.Prepare(toks)
			cands := d.g.ParsePrepared(p)
			if prev != nil {
				items = append(items, item{id: id, dom: dc.Domain, toks: toks, prev: prev})
				if len(interp.Rank(cands, d.idx.Schema, interp.DefaultWeights())) == 0 {
					cands = d.g.ParseUpdate(p, prev)
				}
			}
			if ranked := interp.Rank(cands, d.idx.Schema, interp.DefaultWeights()); len(ranked) > 0 {
				prev = ranked[0].Query
			}
		}
	}
	return items
}

// renderCorpus is the golden file's content under the current grammar.
// After the full-grammar section, each GroupSet prefix of the coverage
// experiment (F3) gets one line: how many items parsed and a hash of
// their rendering, so a rule leaking into or out of a gated tree shows.
func renderCorpus() []byte {
	doms := domains()
	items := corpusItems()
	var b bytes.Buffer
	for _, it := range items {
		out, _ := it.run(doms[it.dom].g)
		b.WriteString(out)
	}

	var groups grammar.GroupSet
	for _, step := range grammar.GroupOrder {
		groups |= step.Set
		gs := map[string]*grammar.Grammar{}
		for name, d := range doms {
			gs[name] = grammar.New(d.idx, grammar.Options{Groups: groups})
		}
		h := fnv.New64a()
		parsed := 0
		for _, it := range items {
			out, n := it.run(gs[it.dom])
			if n > 0 {
				parsed++
			}
			h.Write([]byte(out))
		}
		fmt.Fprintf(&b, "groups<=%s parsed=%d fnv64a=%016x\n", step.Name, parsed, h.Sum64())
	}
	return b.Bytes()
}

// TestGoldenCandidates holds every candidate list — queries, scores and
// order — to the file generated from the commit before the grammar
// became a static tree.
func TestGoldenCandidates(t *testing.T) {
	got := renderCorpus()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("candidates differ from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("candidates differ from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
}
