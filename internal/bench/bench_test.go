package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/keyword"
	"repro/internal/pattern"
	"repro/internal/semindex"
	"repro/internal/sql"
	"repro/internal/store"
)

func TestCorpusGoldIsExecutable(t *testing.T) {
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range Corpus(name) {
			stmt, err := sql.Parse(cs.Gold)
			if err != nil {
				t.Errorf("%s: gold does not parse: %v", cs.ID, err)
				continue
			}
			res, err := exec.Query(db.Snapshot(), stmt)
			if err != nil {
				t.Errorf("%s: gold does not execute: %v", cs.ID, err)
				continue
			}
			if len(res.Rows) == 0 && cs.Class != ClassNegate {
				// Most gold answers should be non-empty; empty results
				// make correctness trivially easy to fake.
				t.Errorf("%s: gold result is empty (%s)", cs.ID, cs.Gold)
			}
		}
	}
}

func TestCorpusSuperlativesAreTieFree(t *testing.T) {
	for _, name := range dataset.Names() {
		db, _ := dataset.ByName(name, 1)
		for _, cs := range Corpus(name) {
			if cs.Class != ClassSuper {
				continue
			}
			stmt := sql.MustParse(cs.Gold)
			if stmt.Limit < 0 {
				continue
			}
			// Re-running with a larger limit must show a strict gap at
			// the cut, otherwise the gold answer depends on tie order.
			limit := stmt.Limit
			stmt.Limit = limit + 1
			res, err := exec.Query(db.Snapshot(), stmt)
			if err != nil {
				t.Fatalf("%s: %v", cs.ID, err)
			}
			if len(res.Rows) <= limit {
				continue // fewer rows than the limit: no cut to check
			}
			// The sort key is not projected, so check by re-running the
			// full ordered query and comparing the boundary rows by key.
			if rowKey(res.Rows[limit-1]) == rowKey(res.Rows[limit]) {
				t.Errorf("%s: tie at the superlative cut (%s)", cs.ID, cs.Gold)
			}
		}
	}
}

func fullEngine(t testing.TB, domain string) (*core.Engine, *store.DB) {
	t.Helper()
	db, err := dataset.ByName(domain, 1)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(db, core.DefaultOptions()), db
}

func TestFullPipelineAccuracy(t *testing.T) {
	for _, name := range dataset.Names() {
		e, db := fullEngine(t, name)
		rep, err := Evaluate(e, db, Corpus(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range rep.Outcomes {
			if !o.Correct {
				t.Logf("%s MISS %q -> sql=%q err=%q", o.Case.ID, o.Case.Question, o.SysSQL, o.Err)
			}
		}
		acc := rep.Overall.Accuracy()
		if acc < 0.85 {
			t.Errorf("%s: full-pipeline accuracy %.2f below 0.85 (%d/%d)",
				name, acc, rep.Overall.Correct, rep.Overall.Total)
		}
	}
}

func TestBaselinesAreWeaker(t *testing.T) {
	for _, name := range dataset.Names() {
		db, _ := dataset.ByName(name, 1)
		idx := semindex.Build(db, semindex.DefaultOptions())
		e := core.NewEngine(db, core.DefaultOptions())
		cases := Corpus(name)

		full, err := Evaluate(e, db, cases)
		if err != nil {
			t.Fatal(err)
		}
		kw, err := Evaluate(keyword.New(idx), db, cases)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := Evaluate(pattern.New(idx), db, cases)
		if err != nil {
			t.Fatal(err)
		}
		if kw.Overall.Correct >= full.Overall.Correct {
			t.Errorf("%s: keyword (%d) not weaker than full (%d)",
				name, kw.Overall.Correct, full.Overall.Correct)
		}
		if pat.Overall.Correct >= full.Overall.Correct {
			t.Errorf("%s: pattern (%d) not weaker than full (%d)",
				name, pat.Overall.Correct, full.Overall.Correct)
		}
		if pat.Overall.Correct <= kw.Overall.Correct {
			t.Errorf("%s: pattern (%d) should beat keyword (%d)",
				name, pat.Overall.Correct, kw.Overall.Correct)
		}
		// Keyword must be useless beyond selection.
		for _, class := range []Class{ClassAgg, ClassGroup, ClassSuper, ClassNested} {
			if s := kw.Stats[class]; s != nil && s.Correct > 0 {
				t.Errorf("%s: keyword scored on %s", name, class)
			}
		}
	}
}

func TestTypoRobustness(t *testing.T) {
	name := "university"
	db, _ := dataset.ByName(name, 1)
	cases := Corpus(name)
	typoed := TypoCases(cases, 1)

	withCorrection := core.DefaultOptions()
	withCorrection.SpellMaxDist = 2
	eOn := core.NewEngine(db, withCorrection)

	noCorrection := core.DefaultOptions()
	noCorrection.SpellMaxDist = 0
	eOff := core.NewEngine(db, noCorrection)

	on, err := Evaluate(eOn, db, typoed)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Evaluate(eOff, db, typoed)
	if err != nil {
		t.Fatal(err)
	}
	if on.Overall.Correct <= off.Overall.Correct {
		t.Errorf("correction on (%d) should beat off (%d)",
			on.Overall.Correct, off.Overall.Correct)
	}
	clean, err := Evaluate(eOn, db, cases)
	if err != nil {
		t.Fatal(err)
	}
	// With correction, one typo should cost at most a third of accuracy.
	if float64(on.Overall.Correct) < 0.66*float64(clean.Overall.Correct) {
		t.Errorf("1-typo accuracy %d collapsed vs clean %d",
			on.Overall.Correct, clean.Overall.Correct)
	}
}

func TestInjectTyposDeterministicAndBounded(t *testing.T) {
	q := "students with grade point average over three"
	a := InjectTypos(q, 1, 7)
	b := InjectTypos(q, 1, 7)
	if a != b {
		t.Error("typo injection not deterministic")
	}
	if a == q {
		t.Error("no typo injected")
	}
	if InjectTypos(q, 0, 7) != q {
		t.Error("n=0 must be identity")
	}
	if InjectTypos("a b c", 1, 7) != "a b c" {
		t.Error("short words must survive")
	}
	quoted := `instructors named "Grace Lovelace"`
	if got := InjectTypos(quoted, 5, 3); strings.Contains(got, "Lovelace") != true {
		t.Errorf("quoted span mutated: %q", got)
	}
}

func TestDialogueCorpus(t *testing.T) {
	outcomes, err := EvaluateDialogue(core.DefaultOptions(), DialogueCorpus())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, o := range outcomes {
		if o.Correct {
			correct++
		} else {
			t.Logf("%s MISS turns=%v sql=%q err=%q", o.Case.ID, o.Case.Turns, o.SysSQL, o.Err)
		}
	}
	if frac := float64(correct) / float64(len(outcomes)); frac < 0.8 {
		t.Errorf("dialogue resolution %.2f below 0.8 (%d/%d)", frac, correct, len(outcomes))
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	points, err := CoverageCurve()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	prev := -1
	for _, p := range points {
		if p.Answered < prev {
			t.Errorf("coverage decreased at %s: %d -> %d", p.Name, prev, p.Answered)
		}
		prev = p.Answered
	}
	first, last := points[0], points[len(points)-1]
	if first.Fraction() >= last.Fraction() {
		t.Errorf("coverage did not grow: %.2f -> %.2f", first.Fraction(), last.Fraction())
	}
	if last.Fraction() < 0.9 {
		t.Errorf("final coverage %.2f below 0.9", last.Fraction())
	}
}

func TestAblationHurts(t *testing.T) {
	results, err := RunAblation(AllCases())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Report{}
	for _, r := range results {
		byName[r.Name] = r.Report
	}
	full := byName["full"].Overall.Correct
	for _, name := range []string{"-synonyms", "-value-index"} {
		if got := byName[name].Overall.Correct; got >= full {
			t.Errorf("%s (%d) should hurt vs full (%d)", name, got, full)
		}
	}
	// Stemming and spelling must not help on the clean corpus... but
	// must never hurt it either (clean questions have no typos).
	if got := byName["-spelling"].Overall.Correct; got != full {
		t.Errorf("-spelling on clean corpus changed accuracy: %d vs %d", got, full)
	}
}

func TestSameResult(t *testing.T) {
	r1 := &exec.Result{Cols: []string{"a"}, Rows: []store.Row{{store.Int(1)}, {store.Int(2)}}}
	r2 := &exec.Result{Cols: []string{"b"}, Rows: []store.Row{{store.Int(2)}, {store.Int(1)}}}
	if !SameResult(r1, r2) {
		t.Error("order must not matter; column names must not matter")
	}
	r3 := &exec.Result{Cols: []string{"a"}, Rows: []store.Row{{store.Int(1)}, {store.Int(1)}}}
	if SameResult(r1, r3) {
		t.Error("duplicates must matter")
	}
	r4 := &exec.Result{Cols: []string{"a", "b"}, Rows: []store.Row{{store.Int(1), store.Int(2)}}}
	if SameResult(r1, r4) {
		t.Error("column count must matter")
	}
	if !SameResult(nil, nil) || SameResult(r1, nil) {
		t.Error("nil handling wrong")
	}
}

// TestPercentilesNearestRank: p50 and p99 are the ceil(q·n)-th
// smallest samples, so with fewer than 100 samples p99 is the slowest.
func TestPercentilesNearestRank(t *testing.T) {
	for _, tc := range []struct{ n, p50, p99 int }{
		{1, 1, 1},
		{22, 11, 22},
		{100, 50, 99},
		{101, 51, 100},
	} {
		ds := make([]time.Duration, tc.n)
		for i := range ds {
			ds[i] = time.Duration(tc.n - i) // descending: percentiles must sort
		}
		p50, p99 := percentiles(ds)
		if p50 != time.Duration(tc.p50) || p99 != time.Duration(tc.p99) {
			t.Errorf("n=%d: p50, p99 = %d, %d; want %d, %d", tc.n, p50, p99, tc.p50, tc.p99)
		}
	}
}

func TestClassStatsMath(t *testing.T) {
	s := ClassStats{Total: 10, Answered: 8, Correct: 6}
	if s.Accuracy() != 0.6 || s.Precision() != 0.75 {
		t.Errorf("accuracy/precision = %v/%v", s.Accuracy(), s.Precision())
	}
	var zero ClassStats
	if zero.Accuracy() != 0 || zero.Precision() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

// TestRankingWeightsMatter is the ablation for DESIGN.md §4(3): with
// the join penalty disabled, ranking must never beat the default
// configuration (join coherence is what disambiguates).
func TestRankingWeightsMatter(t *testing.T) {
	for _, name := range dataset.Names() {
		db, _ := dataset.ByName(name, 1)
		cases := Corpus(name)

		defOpts := core.DefaultOptions()
		eDef := core.NewEngine(db, defOpts)
		defRep, err := Evaluate(eDef, db, cases)
		if err != nil {
			t.Fatal(err)
		}

		flat := core.DefaultOptions()
		flat.Weights.JoinPenalty = 0
		flat.Weights.TablePenalty = 0
		eFlat := core.NewEngine(db, flat)
		flatRep, err := Evaluate(eFlat, db, cases)
		if err != nil {
			t.Fatal(err)
		}
		if flatRep.Overall.Correct > defRep.Overall.Correct {
			t.Errorf("%s: flat weights (%d) beat default (%d)",
				name, flatRep.Overall.Correct, defRep.Overall.Correct)
		}
	}
}

// TestDisjunctionClassScored ensures the new construct class is wired
// into every domain and answered by the full pipeline.
func TestDisjunctionClassScored(t *testing.T) {
	for _, name := range dataset.Names() {
		db, _ := dataset.ByName(name, 1)
		e := core.NewEngine(db, core.DefaultOptions())
		rep, err := Evaluate(e, db, Corpus(name))
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Stats[ClassIn]
		if s == nil || s.Total == 0 {
			t.Errorf("%s: no disjunction cases", name)
			continue
		}
		if s.Correct != s.Total {
			t.Errorf("%s: disjunction %d/%d", name, s.Correct, s.Total)
		}
	}
}

// TestParaphraseVariants runs every registered paraphrase through the
// full pipeline; linguistic variation must not cost accuracy on the
// rule-based system's own turf.
func TestParaphraseVariants(t *testing.T) {
	for _, name := range dataset.Names() {
		db, _ := dataset.ByName(name, 1)
		e := core.NewEngine(db, core.DefaultOptions())
		base := Corpus(name)
		expanded := WithParaphrases(base)
		variants := expanded[len(base):]
		if name == "university" && len(variants) == 0 {
			t.Fatal("no paraphrase variants registered")
		}
		rep, err := Evaluate(e, db, variants)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range rep.Outcomes {
			if !o.Correct {
				t.Errorf("%s MISS %q -> sql=%q err=%q",
					o.Case.ID, o.Case.Question, o.SysSQL, o.Err)
			}
		}
	}
}

func TestWithParaphrasesShape(t *testing.T) {
	base := Corpus("university")
	expanded := WithParaphrases(base)
	if len(expanded) != len(base)+ParaphraseCount(base) {
		t.Errorf("expanded %d != base %d + variants %d",
			len(expanded), len(base), ParaphraseCount(base))
	}
	// Variants keep class and gold.
	byID := map[string]Case{}
	for _, c := range base {
		byID[c.ID] = c
	}
	for _, c := range expanded[len(base):] {
		baseID := c.ID[:strings.LastIndex(c.ID, "-p")]
		b := byID[baseID]
		if c.Gold != b.Gold || c.Class != b.Class {
			t.Errorf("variant %s does not match base %s", c.ID, baseID)
		}
	}
}

func TestGoldResultHelper(t *testing.T) {
	db, _ := dataset.ByName("university", 1)
	cs := Corpus("university")[0]
	res, err := GoldResult(db, cs)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("GoldResult: %v", err)
	}
	bad := cs
	bad.Gold = "not sql"
	if _, err := GoldResult(db, bad); err == nil {
		t.Error("bad gold should error")
	}
}
