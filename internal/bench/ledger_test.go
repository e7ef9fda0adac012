package bench

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/keyword"
	"repro/internal/pattern"
	"repro/internal/semindex"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden from the current tree")

const (
	ledgerPath    = "testdata/ledger.golden"
	ledgerUpdate  = "go test ./internal/bench -run TestAccuracyLedger -update"
	casesHeader   = "================ cases: nli, one line per question ================"
	maxDiffsShown = 8
)

// ledger is every evaluation behind the accuracy tables, each case set
// evaluated once: a table aggregates the very Outcomes the case lines
// print.
type ledger struct {
	domains  []domainEval      // T1, T3, T6 and the gold and paraphrase lines, in dataset.Names() order
	ablation []*Report         // T2: "full" (the domains' nli reports merged), then each ablation
	typos    [3][3]*Report     // T5 over the university corpus: [correction off, d=1, d=2][0, 1, 2 typos]
	dialogue []DialogueOutcome // T4
	coverage []CoveragePoint   // F3
}

// domainEval is one domain's gold corpus under the three systems and
// its paraphrase variants under the engine.
type domainEval struct {
	name        string
	systems     []*Report // keyword, pattern, nli
	paraphrases *Report
}

func (d domainEval) nli() *Report { return d.systems[len(d.systems)-1] }

func (l *ledger) domain(name string) domainEval {
	for _, d := range l.domains {
		if d.name == name {
			return d
		}
	}
	panic("bench: no domain " + name)
}

// spellDists are T5's rows: correction off, then distance 1 and 2.
var spellDists = [3]int{0, 1, 2}

// theLedger is built once per test binary; every test here may read it.
var theLedger = sync.OnceValues(buildLedger)

func readLedger(t *testing.T) *ledger {
	t.Helper()
	l, err := theLedger()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func buildLedger() (*ledger, error) {
	l := &ledger{}
	full := &Report{System: "full"}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			return nil, err
		}
		idx := semindex.Build(db, semindex.DefaultOptions())
		e := core.NewEngine(db, core.DefaultOptions())
		d := domainEval{name: name}
		cases := Corpus(name)
		for _, sys := range []System{keyword.New(idx), pattern.New(idx), e} {
			rep, err := Evaluate(sys, db, cases)
			if err != nil {
				return nil, err
			}
			d.systems = append(d.systems, rep)
		}
		if d.paraphrases, err = Evaluate(e, db, WithParaphrases(cases)[len(cases):]); err != nil {
			return nil, err
		}
		full.merge(d.nli())
		l.domains = append(l.domains, d)
	}

	ablations, err := RunAblation(AllCases())
	if err != nil {
		return nil, err
	}
	l.ablation = append([]*Report{full}, ablations...)

	gold := l.domain("university").nli()
	db, err := dataset.ByName("university", 1)
	if err != nil {
		return nil, err
	}
	cases := Corpus("university")
	for i, dist := range spellDists {
		opts := core.DefaultOptions()
		opts.SpellMaxDist = dist
		e := core.NewEngine(db, opts)
		for n := range l.typos[i] {
			if n == 0 && dist == core.DefaultOptions().SpellMaxDist {
				l.typos[i][n] = gold // the gold corpus's own evaluation
				continue
			}
			cs := cases
			if n > 0 {
				cs = TypoCases(cases, n)
			}
			if l.typos[i][n], err = Evaluate(e, db, cs); err != nil {
				return nil, err
			}
		}
	}

	if l.dialogue, err = EvaluateDialogue(core.DefaultOptions(), DialogueCorpus()); err != nil {
		return nil, err
	}
	if l.coverage, err = CoverageCurve(); err != nil {
		return nil, err
	}
	return l, nil
}

// render writes the tables T1–T6 and F3, then one line per case the
// engine was asked.
func (l *ledger) render() []byte {
	var b bytes.Buffer
	l.writeT1(&b)
	l.writeT2(&b)
	l.writeT3(&b)
	l.writeT4(&b)
	l.writeT5(&b)
	l.writeT6(&b)
	l.writeF3(&b)
	l.writeCases(&b)
	return b.Bytes()
}

func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n================ %s: %s ================\n", id, title)
}

func pct(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }

// writeT1 prints end-to-end accuracy by construct class per domain and
// system.
func (l *ledger) writeT1(w io.Writer) {
	header(w, "T1", "end-to-end accuracy by construct class")
	for _, d := range l.domains {
		fmt.Fprintf(w, "\n-- domain: %s (%d questions) --\n", d.name, d.nli().Overall.Total)
		fmt.Fprintf(w, "%-14s", "class")
		for _, rep := range d.systems {
			fmt.Fprintf(w, "  %8s", rep.System)
		}
		fmt.Fprintln(w)
		for _, class := range Classes() {
			if d.systems[0].Stats[class] == nil {
				continue
			}
			fmt.Fprintf(w, "%-14s", class)
			for _, rep := range d.systems {
				fmt.Fprintf(w, "  %8s", pct(rep.Stats[class].Accuracy()))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-14s", "OVERALL")
		for _, rep := range d.systems {
			fmt.Fprintf(w, "  %8s", pct(rep.Overall.Accuracy()))
		}
		fmt.Fprintln(w)
	}
}

// writeT2 prints the lexicon-ablation table.
func (l *ledger) writeT2(w io.Writer) {
	header(w, "T2", "lexicon ablation (full corpus, all domains)")
	full := l.ablation[0].Overall.Accuracy()
	fmt.Fprintf(w, "%-14s  %8s  %8s  %8s\n", "variant", "accuracy", "answered", "delta")
	for _, r := range l.ablation {
		o := r.Overall
		fmt.Fprintf(w, "%-14s  %8s  %8s  %+7.1f\n",
			r.System, pct(o.Accuracy()),
			pct(float64(o.Answered)/float64(o.Total)),
			100*(o.Accuracy()-full))
	}
}

// writeT3 prints interpretation-ambiguity statistics.
func (l *ledger) writeT3(w io.Writer) {
	header(w, "T3", "interpretation ambiguity and ranking")
	fmt.Fprintf(w, "%-12s %7s %7s %7s %7s %7s %7s %7s %7s\n",
		"domain", "parsed", "avg#", "=1", "=2", "=3", ">=4", "top-1", "top-3")
	for _, d := range l.domains {
		rep := d.nli().Ambiguity()
		p := float64(rep.Parsed)
		fmt.Fprintf(w, "%-12s %7d %7.2f %7s %7s %7s %7s %7s %7s\n",
			d.name, rep.Parsed, rep.AvgInterpretations(),
			pct(float64(rep.Hist[0])/p), pct(float64(rep.Hist[1])/p),
			pct(float64(rep.Hist[2])/p), pct(float64(rep.Hist[3])/p),
			pct(float64(rep.Top1)/p), pct(float64(rep.Top3)/p))
	}
}

// writeT4 prints dialogue/ellipsis resolution accuracy per class.
func (l *ledger) writeT4(w io.Writer) {
	header(w, "T4", "dialogue context resolution")
	type agg struct{ total, correct int }
	byClass := map[string]*agg{}
	var order []string
	for _, o := range l.dialogue {
		a := byClass[o.Case.Class]
		if a == nil {
			a = &agg{}
			byClass[o.Case.Class] = a
			order = append(order, o.Case.Class)
		}
		a.total++
		if o.Correct {
			a.correct++
		}
	}
	fmt.Fprintf(w, "%-18s %7s %7s\n", "ellipsis class", "cases", "correct")
	total, correct := 0, 0
	for _, cl := range order {
		a := byClass[cl]
		fmt.Fprintf(w, "%-18s %7d %7s\n", cl, a.total, pct(float64(a.correct)/float64(a.total)))
		total += a.total
		correct += a.correct
	}
	fmt.Fprintf(w, "%-18s %7d %7s\n", "OVERALL", total, pct(float64(correct)/float64(total)))
}

// writeT5 prints misspelling robustness.
func (l *ledger) writeT5(w io.Writer) {
	header(w, "T5", "misspelling robustness (university corpus)")
	fmt.Fprintf(w, "%-16s %8s %8s %8s\n", "configuration", "0 typos", "1 typo", "2 typos")
	for i, row := range l.typos {
		fmt.Fprintf(w, "%-16s", "correction "+correction(spellDists[i]))
		for _, rep := range row {
			fmt.Fprintf(w, " %8s", pct(rep.Overall.Accuracy()))
		}
		fmt.Fprintln(w)
	}
}

// correction names a T5 row: "off" or the distance, "d=1".
func correction(dist int) string {
	if dist == 0 {
		return "off"
	}
	return fmt.Sprintf("d=%d", dist)
}

// writeT6 prints the baseline comparison detail (coverage and precision).
func (l *ledger) writeT6(w io.Writer) {
	header(w, "T6", "baseline comparison: coverage and precision")
	fmt.Fprintf(w, "%-12s %-9s %9s %9s %9s\n", "domain", "system", "answered", "accuracy", "precision")
	for _, d := range l.domains {
		for _, rep := range d.systems {
			o := rep.Overall
			fmt.Fprintf(w, "%-12s %-9s %9s %9s %9s\n", d.name, rep.System,
				pct(float64(o.Answered)/float64(o.Total)),
				pct(o.Accuracy()), pct(o.Precision()))
		}
	}
}

// writeF3 prints the grammar coverage growth curve.
func (l *ledger) writeF3(w io.Writer) {
	header(w, "F3", "corpus coverage vs enabled rule groups")
	fmt.Fprintf(w, "%-6s %-14s %9s %9s\n", "groups", "added", "answered", "coverage")
	for _, p := range l.coverage {
		fmt.Fprintf(w, "%-6d %-14s %6d/%-3d %9s\n", p.Groups, "+"+p.Name, p.Answered, p.Total, pct(p.Fraction()))
	}
}

// writeCases prints one line per case the engine was asked: the set it
// belongs to, its ID, verdict, top-two margin, spelling corrections
// and generated SQL or error. The sets are the gold corpus, its
// paraphrase variants, T5's grid (but its d=1 clean cell, which is the
// gold corpus) and every dialogue turn; a turn before a session's last
// has no gold of its own, so its verdict is only answered or
// unanswered.
func (l *ledger) writeCases(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", casesHeader)
	fmt.Fprintln(w, "set        case                     verdict     margin  corrections  sql | error")
	for _, d := range l.domains {
		for _, o := range d.nli().Outcomes {
			writeCase(w, "gold", o, o.verdict())
		}
	}
	for _, d := range l.domains {
		for _, o := range d.paraphrases.Outcomes {
			writeCase(w, "para", o, o.verdict())
		}
	}
	gold := l.domain("university").nli()
	for i, row := range l.typos {
		for n, rep := range row {
			if rep == gold {
				continue
			}
			set := fmt.Sprintf("typo%d/%s", n, correction(spellDists[i]))
			for _, o := range rep.Outcomes {
				writeCase(w, set, o, o.verdict())
			}
		}
	}
	for _, s := range l.dialogue {
		for i, o := range s.Turns {
			verdict := o.verdict()
			if i < len(s.Case.Turns)-1 && o.Answered {
				verdict = "answered"
			}
			writeCase(w, "dialogue", o, verdict)
		}
	}
}

func writeCase(w io.Writer, set string, o Outcome, verdict string) {
	fixes := "-"
	if len(o.Corrections) > 0 {
		var parts []string
		for _, c := range o.Corrections {
			parts = append(parts, c.From+">"+c.To)
		}
		fixes = strings.Join(parts, ",")
	}
	fmt.Fprintf(w, "%-10s %-24s %-10s %7.3f  %-11s  %s", set, o.Case.ID, verdict, o.Ambiguity.Margin, fixes, o.SysSQL)
	if o.Err != "" {
		if o.SysSQL != "" {
			fmt.Fprint(w, " | ")
		}
		fmt.Fprintf(w, "error: %s", o.Err)
	}
	fmt.Fprintln(w)
}

// TestAccuracyLedger holds the accuracy tables T1–T6 and F3 and every
// case line under them to testdata/ledger.golden: a question that flips
// between right and wrong, or only changes its SQL, margin or repairs,
// fails here whatever floor the tests above assert. A change meant to
// move accuracy rewrites the file with -update and shows the move in
// its diff.
func TestAccuracyLedger(t *testing.T) {
	got := readLedger(t).render()
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v; write it with: %s", err, ledgerUpdate)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale; if the change means to move accuracy, rewrite it with:\n\t%s\n%s",
			ledgerPath, ledgerUpdate, ledgerDiff(string(got), string(want)))
	}
}

// ledgerDiff names the cases whose lines changed, keyed by set and ID,
// then shows the first differing lines in file order.
func ledgerDiff(got, want string) string {
	var b strings.Builder
	gotKeys, gotCases := caseLines(got)
	wantKeys, wantCases := caseLines(want)
	var changed []string
	for _, k := range gotKeys {
		if gotCases[k] != wantCases[k] {
			changed = append(changed, k)
		}
	}
	for _, k := range wantKeys {
		if _, ok := gotCases[k]; !ok {
			changed = append(changed, k)
		}
	}
	if len(changed) > 0 {
		fmt.Fprintf(&b, "%d case lines changed: %s\n", len(changed), strings.Join(changed, ", "))
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < maxDiffsShown; i++ {
		g, w := lineAt(gl, i), lineAt(wl, i)
		if g != w {
			fmt.Fprintf(&b, "line %d:\n  got  %s\n  want %s\n", i+1, g, w)
			shown++
		}
	}
	if len(gl) != len(wl) {
		fmt.Fprintf(&b, "%d lines, want %d\n", len(gl), len(wl))
	}
	return b.String()
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

// caseLines keys each line after the cases header by its set and case
// ID, returning the keys in file order and the lines by key.
func caseLines(ledger string) (keys []string, lines map[string]string) {
	lines = map[string]string{}
	_, cases, _ := strings.Cut(ledger, casesHeader+"\n")
	for _, line := range strings.Split(cases, "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			k := f[0] + " " + f[1]
			keys = append(keys, k)
			lines[k] = line
		}
	}
	return keys, lines
}
