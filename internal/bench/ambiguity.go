package bench

// AmbiguityReport summarizes interpretation ambiguity over a case set
// (table T3): how many readings questions have and how often the
// ranker puts the correct one first.
type AmbiguityReport struct {
	Parsed      int // questions with at least one interpretation
	TotalInterp int
	Hist        [4]int // interpretation count: 1, 2, 3, >=4
	Top1        int    // correct reading ranked first
	Top3        int    // correct reading within the top three
}

// AvgInterpretations is interpretations per parsed question.
func (r AmbiguityReport) AvgInterpretations() float64 {
	if r.Parsed == 0 {
		return 0
	}
	return float64(r.TotalInterp) / float64(r.Parsed)
}

// Ambiguity aggregates the readings and gold ranks Evaluate recorded
// for an interpreter's outcomes.
func (r *Report) Ambiguity() AmbiguityReport {
	var a AmbiguityReport
	for _, o := range r.Outcomes {
		n := o.Ambiguity.Candidates
		if n == 0 {
			continue
		}
		a.Parsed++
		a.TotalInterp += n
		a.Hist[min(n, 4)-1]++
		if o.GoldRank == 1 {
			a.Top1++
		}
		if o.GoldRank > 0 {
			a.Top3++
		}
	}
	return a
}
