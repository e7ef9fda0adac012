// Command nlibench prints the accuracy tables T1–T6 and the coverage
// curve F3 of the reconstructed evaluation (see DESIGN.md § 3 and
// EXPERIMENTS.md). Every table is deterministic: the same tree prints
// the same bytes.
//
// Usage:
//
//	nlibench [-exp all|ID[,ID...]]
//
// where each ID is one of T1..T6 or F3. Speed is not measured here:
// the question benchmark (benchmark/) records it, and the former F
// experiments' bars are Go tests (EXPERIMENTS.md names each one).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/keyword"
	"repro/internal/pattern"
	"repro/internal/semindex"
	"repro/internal/store"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (T1..T6, F3) or 'all'")
	flag.Parse()

	experiments := map[string]func() error{
		"T1": expT1, "T2": expT2, "T3": expT3, "T4": expT4,
		"T5": expT5, "T6": expT6, "F3": expF3,
	}
	order := []string{"T1", "T2", "T3", "T4", "T5", "T6", "F3"}

	ids := order
	if *exp != "all" {
		ids = strings.Split(strings.ToUpper(*exp), ",")
		for _, id := range ids {
			if experiments[id] == nil {
				fmt.Fprintf(os.Stderr, "nlibench: unknown experiment %q (have %v)\n", id, order)
				os.Exit(2)
			}
		}
	}
	for _, id := range ids {
		if err := experiments[id](); err != nil {
			fmt.Fprintf(os.Stderr, "nlibench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func header(id, title string) {
	fmt.Printf("\n================ %s: %s ================\n", id, title)
}

func pct(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }

// systemsFor builds the three evaluated systems over one domain.
func systemsFor(db *store.DB) []bench.System {
	idx := semindex.Build(db, semindex.DefaultOptions())
	return []bench.System{
		keyword.New(idx),
		pattern.New(idx),
		core.NewEngine(db, core.DefaultOptions()),
	}
}

// expT1 prints end-to-end accuracy by construct class per domain and
// system.
func expT1() error {
	header("T1", "end-to-end accuracy by construct class")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		cases := bench.Corpus(domain)
		reports := map[string]*bench.Report{}
		var names []string
		for _, sys := range systemsFor(db) {
			rep, err := bench.Evaluate(sys, db, cases)
			if err != nil {
				return err
			}
			reports[sys.Name()] = rep
			names = append(names, sys.Name())
		}
		fmt.Printf("\n-- domain: %s (%d questions) --\n", domain, len(cases))
		fmt.Printf("%-14s", "class")
		for _, n := range names {
			fmt.Printf("  %8s", n)
		}
		fmt.Println()
		for _, class := range bench.Classes() {
			if reports[names[0]].Stats[class] == nil {
				continue
			}
			fmt.Printf("%-14s", class)
			for _, n := range names {
				s := reports[n].Stats[class]
				fmt.Printf("  %8s", pct(s.Accuracy()))
			}
			fmt.Println()
		}
		fmt.Printf("%-14s", "OVERALL")
		for _, n := range names {
			fmt.Printf("  %8s", pct(reports[n].Overall.Accuracy()))
		}
		fmt.Println()
	}
	return nil
}

// expT2 prints the lexicon-ablation table.
func expT2() error {
	header("T2", "lexicon ablation (full corpus, all domains)")
	results, err := bench.RunAblation(bench.AllCases())
	if err != nil {
		return err
	}
	full := results[0].Report.Overall.Accuracy()
	fmt.Printf("%-14s  %8s  %8s  %8s\n", "variant", "accuracy", "answered", "delta")
	for _, r := range results {
		o := r.Report.Overall
		fmt.Printf("%-14s  %8s  %8s  %+7.1f\n",
			r.Name, pct(o.Accuracy()),
			pct(float64(o.Answered)/float64(o.Total)),
			100*(o.Accuracy()-full))
	}
	return nil
}

// expT3 prints interpretation-ambiguity statistics.
func expT3() error {
	header("T3", "interpretation ambiguity and ranking")
	fmt.Printf("%-12s %7s %7s %7s %7s %7s %7s %7s %7s\n",
		"domain", "parsed", "avg#", "=1", "=2", "=3", ">=4", "top-1", "top-3")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		e := core.NewEngine(db, core.DefaultOptions())
		rep, err := bench.EvaluateAmbiguity(e, db, bench.Corpus(domain))
		if err != nil {
			return err
		}
		p := float64(rep.Parsed)
		fmt.Printf("%-12s %7d %7.2f %7s %7s %7s %7s %7s %7s\n",
			domain, rep.Parsed, rep.AvgInterpretations(),
			pct(float64(rep.Hist[0])/p), pct(float64(rep.Hist[1])/p),
			pct(float64(rep.Hist[2])/p), pct(float64(rep.Hist[3])/p),
			pct(float64(rep.Top1)/p), pct(float64(rep.Top3)/p))
	}
	return nil
}

// expT4 prints dialogue/ellipsis resolution accuracy per class.
func expT4() error {
	header("T4", "dialogue context resolution")
	outcomes, err := bench.EvaluateDialogue(core.DefaultOptions(), bench.DialogueCorpus())
	if err != nil {
		return err
	}
	type agg struct{ total, correct int }
	byClass := map[string]*agg{}
	var order []string
	for _, o := range outcomes {
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
	fmt.Printf("%-18s %7s %7s\n", "ellipsis class", "cases", "correct")
	total, correct := 0, 0
	for _, cl := range order {
		a := byClass[cl]
		fmt.Printf("%-18s %7d %7s\n", cl, a.total, pct(float64(a.correct)/float64(a.total)))
		total += a.total
		correct += a.correct
	}
	fmt.Printf("%-18s %7d %7s\n", "OVERALL", total, pct(float64(correct)/float64(total)))
	return nil
}

// expT5 prints misspelling robustness.
func expT5() error {
	header("T5", "misspelling robustness (university corpus)")
	db, err := dataset.ByName("university", 1)
	if err != nil {
		return err
	}
	cases := bench.Corpus("university")
	variants := []struct {
		name string
		dist int
	}{
		{"correction off", 0},
		{"correction d=1", 1},
		{"correction d=2", 2},
	}
	fmt.Printf("%-16s %8s %8s %8s\n", "configuration", "0 typos", "1 typo", "2 typos")
	for _, v := range variants {
		opts := core.DefaultOptions()
		opts.SpellMaxDist = v.dist
		e := core.NewEngine(db, opts)
		fmt.Printf("%-16s", v.name)
		for _, n := range []int{0, 1, 2} {
			cs := cases
			if n > 0 {
				cs = bench.TypoCases(cases, n)
			}
			rep, err := bench.Evaluate(e, db, cs)
			if err != nil {
				return err
			}
			fmt.Printf(" %8s", pct(rep.Overall.Accuracy()))
		}
		fmt.Println()
	}
	return nil
}

// expT6 prints the baseline comparison detail (coverage and precision).
func expT6() error {
	header("T6", "baseline comparison: coverage and precision")
	fmt.Printf("%-12s %-9s %9s %9s %9s\n", "domain", "system", "answered", "accuracy", "precision")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		for _, sys := range systemsFor(db) {
			rep, err := bench.Evaluate(sys, db, bench.Corpus(domain))
			if err != nil {
				return err
			}
			o := rep.Overall
			fmt.Printf("%-12s %-9s %9s %9s %9s\n", domain, sys.Name(),
				pct(float64(o.Answered)/float64(o.Total)),
				pct(o.Accuracy()), pct(o.Precision()))
		}
	}
	return nil
}

// expF3 prints the grammar coverage growth curve.
func expF3() error {
	header("F3", "corpus coverage vs enabled rule groups")
	points, err := bench.CoverageCurve()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-14s %9s %9s\n", "groups", "added", "answered", "coverage")
	for _, p := range points {
		fmt.Printf("%-6d %-14s %6d/%-3d %9s\n", p.Groups, "+"+p.Name, p.Answered, p.Total, pct(p.Fraction()))
	}
	return nil
}
