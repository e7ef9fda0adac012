package bench

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
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

func TestFullPipelineAccuracy(t *testing.T) {
	for _, d := range readLedger(t).domains {
		name, rep := d.name, d.nli()
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
	for _, d := range readLedger(t).domains {
		name, kw, pat, full := d.name, d.systems[0], d.systems[1], d.nli()
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

// TestTypoRobustness reads T5's university grid: one typo per
// question, correction at distance 2 against correction off.
func TestTypoRobustness(t *testing.T) {
	typos := readLedger(t).typos
	on, off, clean := typos[2][1], typos[0][1], typos[2][0]
	if on.Overall.Correct <= off.Overall.Correct {
		t.Errorf("correction on (%d) should beat off (%d)",
			on.Overall.Correct, off.Overall.Correct)
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
	outcomes := readLedger(t).dialogue
	correct := 0
	for _, o := range outcomes {
		if o.Correct {
			correct++
		} else {
			last := o.Turns[len(o.Turns)-1]
			t.Logf("%s MISS turns=%v sql=%q err=%q", o.Case.ID, o.Case.Turns, last.SysSQL, last.Err)
		}
	}
	if frac := float64(correct) / float64(len(outcomes)); frac < 0.8 {
		t.Errorf("dialogue resolution %.2f below 0.8 (%d/%d)", frac, correct, len(outcomes))
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	points := readLedger(t).coverage
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
	byName := map[string]*Report{}
	for _, r := range readLedger(t).ablation {
		byName[r.System] = r
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
	for _, d := range readLedger(t).domains {
		name, defRep := d.name, d.nli()
		db, _ := dataset.ByName(name, 1)

		flat := core.DefaultOptions()
		flat.Weights.JoinPenalty = 0
		flat.Weights.TablePenalty = 0
		eFlat := core.NewEngine(db, flat)
		flatRep, err := Evaluate(eFlat, db, Corpus(name))
		if err != nil {
			t.Fatal(err)
		}
		if flatRep.Overall.Correct > defRep.Overall.Correct {
			t.Errorf("%s: flat weights (%d) beat default (%d)",
				name, flatRep.Overall.Correct, defRep.Overall.Correct)
		}
	}
}

// TestAmbiguityRanksGoldFirst: in every domain the ranker puts some
// question's gold reading first (T3's top-1 column), and the counts nest.
func TestAmbiguityRanksGoldFirst(t *testing.T) {
	for _, d := range readLedger(t).domains {
		name, rep := d.name, d.nli().Ambiguity()
		if rep.Top1 == 0 || rep.Top1 > rep.Top3 || rep.Top3 > rep.Parsed {
			t.Errorf("%s: top-1 %d, top-3 %d of %d parsed", name, rep.Top1, rep.Top3, rep.Parsed)
		}
	}
}

// TestDisjunctionClassScored ensures the new construct class is wired
// into every domain and answered by the full pipeline.
func TestDisjunctionClassScored(t *testing.T) {
	for _, d := range readLedger(t).domains {
		name, rep := d.name, d.nli()
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
	for _, d := range readLedger(t).domains {
		rep := d.paraphrases
		if d.name == "university" && len(rep.Outcomes) == 0 {
			t.Fatal("no paraphrase variants registered")
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

// TestOneSpeedHarness pins that this package scores answers and never
// times them: speed is the question benchmark's (benchmark/), and every
// former timing bar is a Go test next to the code it gates. No non-test
// file here imports a clock, the runtime or an HTTP stack.
func TestOneSpeedHarness(t *testing.T) {
	banned := map[string]bool{`"time"`: true, `"runtime"`: true, `"net/http"`: true, `"net/http/httptest"`: true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if banned[imp.Path.Value] {
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), imp.Path.Value)
				}
			}
		}
	}
}

// TestOneAnswerHarness pins that the accuracy tables have one home,
// TestAccuracyLedger: the command that used to print them is gone, no
// non-test main package of the module imports this harness, and
// testdata/ledger.golden holds each of T1–T6 and F3 exactly once.
func TestOneAnswerHarness(t *testing.T) {
	if _, err := os.Stat("../../cmd/nlibench"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("cmd/nlibench exists (%v): the tables are TestAccuracyLedger's", err)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if path != "../.." && (strings.HasPrefix(de.Name(), ".") || de.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if f.Name.Name == "main" && imp.Path.Value == `"repro/internal/bench"` {
				t.Errorf("%s: package main imports the accuracy harness", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "F3"} {
		if n := strings.Count(string(golden), "\n================ "+id+": "); n != 1 {
			t.Errorf("%s holds the %s header %d times, want once", ledgerPath, id, n)
		}
	}
}
