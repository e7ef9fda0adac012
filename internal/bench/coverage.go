package bench

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/grammar"
	"repro/internal/store"
)

// CoveragePoint is one point on the coverage-growth curve (figure F3):
// the fraction of the corpus the engine answers with the first k rule
// groups enabled.
type CoveragePoint struct {
	Groups   int    // number of rule groups enabled
	Name     string // name of the last group added
	Answered int
	Total    int
}

// Fraction returns the covered fraction.
func (p CoveragePoint) Fraction() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Answered) / float64(p.Total)
}

// CoverageCurve sweeps grammar.GroupOrder cumulatively over the full
// corpus, one engine per prefix.
func CoverageCurve() ([]CoveragePoint, error) {
	dbs := map[string]*store.DB{}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			return nil, err
		}
		dbs[name] = db
	}
	cases := AllCases()

	var points []CoveragePoint
	var groups grammar.GroupSet
	for k, g := range grammar.GroupOrder {
		groups |= g.Set
		engines := map[string]*core.Engine{}
		opts := core.DefaultOptions()
		opts.Grammar = grammar.Options{Groups: groups}
		for name, db := range dbs {
			engines[name] = core.NewEngine(db, opts)
		}
		p := CoveragePoint{Groups: k + 1, Name: g.Name, Total: len(cases)}
		for _, cs := range cases {
			if _, err := engines[cs.Domain].Translate(cs.Question); err == nil {
				p.Answered++
			}
		}
		points = append(points, p)
	}
	return points, nil
}

// ablations are the lexicon ablations of T2, each the default engine
// with one part turned off.
var ablations = []struct {
	name string
	off  func(*core.Options)
}{
	{"-synonyms", func(o *core.Options) { o.Index.Synonyms = false }},
	{"-stemming", func(o *core.Options) { o.Index.Stems = false }},
	{"-value-index", func(o *core.Options) { o.Index.Values = false }},
	{"-spelling", func(o *core.Options) { o.SpellMaxDist = 0 }},
}

// RunAblation evaluates every T2 ablation over cases and returns one
// report per ablation, merged across domains and named after it.
func RunAblation(cases []Case) ([]*Report, error) {
	var out []*Report
	for _, v := range ablations {
		opts := core.DefaultOptions()
		v.off(&opts)
		merged := &Report{System: v.name}
		for _, name := range dataset.Names() {
			db, err := dataset.ByName(name, 1)
			if err != nil {
				return nil, err
			}
			var domainCases []Case
			for _, cs := range cases {
				if cs.Domain == name {
					domainCases = append(domainCases, cs)
				}
			}
			rep, err := Evaluate(core.NewEngine(db, opts), db, domainCases)
			if err != nil {
				return nil, err
			}
			merged.merge(rep)
		}
		out = append(out, merged)
	}
	return out, nil
}

// merge adds src's outcomes to r.
func (r *Report) merge(src *Report) {
	for _, o := range src.Outcomes {
		r.add(o)
	}
}
