package bench

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/iql"
	"repro/internal/sql"
	"repro/internal/store"
)

// AmbiguityReport summarizes interpretation ambiguity over a case set
// (table T3): how many readings questions have and how often the
// ranker puts the correct one first.
type AmbiguityReport struct {
	Cases       int
	Parsed      int // questions with at least one interpretation
	TotalInterp int
	Hist        [4]int // interpretation count: 1, 2, 3, >=4
	Top1        int    // correct reading ranked first
	Top3        int    // correct reading within the top three
	MarginSum   float64
}

// AvgInterpretations is interpretations per parsed question.
func (r *AmbiguityReport) AvgInterpretations() float64 {
	if r.Parsed == 0 {
		return 0
	}
	return float64(r.TotalInterp) / float64(r.Parsed)
}

// AvgMargin is the mean score gap between the top two readings.
func (r *AmbiguityReport) AvgMargin() float64 {
	if r.Parsed == 0 {
		return 0
	}
	return r.MarginSum / float64(r.Parsed)
}

// EvaluateAmbiguity interprets every case, recording the number of
// surviving readings and whether any of the top-k readings executes to
// the gold result.
func EvaluateAmbiguity(e *core.Engine, db *store.DB, cases []Case) (*AmbiguityReport, error) {
	rep := &AmbiguityReport{Cases: len(cases)}
	for _, cs := range cases {
		goldRes, err := runSQL(db, cs.Gold)
		if err != nil {
			return nil, err
		}
		ans, err := e.Interpret(cs.Question)
		if err != nil || len(ans.Ranked) == 0 {
			continue
		}
		rep.Parsed++
		n := len(ans.Ranked)
		rep.TotalInterp += n
		switch {
		case n == 1:
			rep.Hist[0]++
		case n == 2:
			rep.Hist[1]++
		case n == 3:
			rep.Hist[2]++
		default:
			rep.Hist[3]++
		}
		if n >= 2 {
			rep.MarginSum += ans.Ranked[0].Score - ans.Ranked[1].Score
		}

		for k := 0; k < n && k < 3; k++ {
			stmt, err := iql.ToSQL(ans.Ranked[k].Query, db.Schema)
			if err != nil {
				continue
			}
			res, err := exec.Query(db.Snapshot(), stmt)
			if err != nil {
				continue
			}
			if SameResult(goldRes, res) {
				if k == 0 {
					rep.Top1++
				}
				rep.Top3++
				break
			}
		}
	}
	return rep, nil
}

// GoldResult executes a case's gold SQL (exported for harness reuse).
func GoldResult(db *store.DB, cs Case) (*exec.Result, error) {
	stmt, err := sql.Parse(cs.Gold)
	if err != nil {
		return nil, err
	}
	return exec.Query(db.Snapshot(), stmt)
}
