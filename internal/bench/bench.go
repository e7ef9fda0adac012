// Package bench is the evaluation harness: the gold question/SQL
// corpus over the three domains, execution-match scoring, typo
// injection and grammar-coverage sweeps. It scores answers and never
// times them: TestAccuracyLedger holds its tables (T1–T6, F3) and one
// line per evaluated case to testdata/ledger.golden, and speed is the
// question benchmark's (benchmark/).
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/iql"
	"repro/internal/semindex"
	"repro/internal/sql"
	"repro/internal/store"
)

// Class is a question construct class — the rows of the accuracy
// tables (T1, T6).
type Class string

const (
	ClassSelect  Class = "select"
	ClassProject Class = "project"
	ClassJoin    Class = "join"
	ClassAgg     Class = "aggregate"
	ClassGroup   Class = "group"
	ClassSuper   Class = "superlative"
	ClassCompare Class = "comparative"
	ClassNegate  Class = "negation"
	ClassNested  Class = "nested"
	ClassIn      Class = "disjunction"
)

// Classes lists all construct classes in report order.
func Classes() []Class {
	return []Class{ClassSelect, ClassProject, ClassJoin, ClassAgg,
		ClassGroup, ClassSuper, ClassCompare, ClassNegate, ClassNested,
		ClassIn}
}

// Case is one gold question.
type Case struct {
	ID       string
	Domain   string
	Class    Class
	Question string
	Gold     string // gold SQL over the domain's schema
}

// System is anything the harness can evaluate: the full pipeline and
// both baselines implement it.
type System interface {
	Name() string
	Translate(question string) (*sql.SelectStmt, error)
}

// Outcome is the result of one case.
type Outcome struct {
	Case     Case
	Answered bool // the system produced executable SQL
	Correct  bool // execution matched the gold result
	SysSQL   string
	Err      string

	// Filled when the system is the engine, whose Interpret exposes
	// what Translate drops.
	Corrections []semindex.Correction // spelling repairs made before parsing
	Ambiguity   interp.Ambiguity      // readings and top-two margin; zero when interpretation failed
	GoldRank    int                   // 1-based rank of the first of the top three readings executing to gold, 0 if none
}

// verdict is "correct", "wrong" or "unanswered".
func (o Outcome) verdict() string {
	switch {
	case o.Correct:
		return "correct"
	case o.Answered:
		return "wrong"
	}
	return "unanswered"
}

// ClassStats aggregates outcomes for one class.
type ClassStats struct {
	Total    int
	Answered int
	Correct  int
}

// Accuracy is correct / total.
func (s ClassStats) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Total)
}

// Precision is correct / answered (quality over the attempted subset).
func (s ClassStats) Precision() float64 {
	if s.Answered == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Answered)
}

// Report is the evaluation of one system over one case set.
type Report struct {
	System   string
	Stats    map[Class]*ClassStats
	Overall  ClassStats
	Outcomes []Outcome
}

// Evaluate runs every case through sys and scores by execution match
// against the gold SQL on db. A gold query that fails to parse or
// execute is a corpus bug and returns an error.
func Evaluate(sys System, db *store.DB, cases []Case) (*Report, error) {
	rep := &Report{System: sys.Name()}
	engine, isEngine := sys.(*core.Engine)
	for _, cs := range cases {
		goldRes, err := GoldResult(db, cs)
		if err != nil {
			return nil, fmt.Errorf("bench: gold for %s is broken: %w", cs.ID, err)
		}

		out := Outcome{Case: cs}
		var stmt *sql.SelectStmt
		var ranked []interp.Scored
		if isEngine {
			var ans *core.Answer
			ans, err = engine.Interpret(cs.Question)
			stmt, out.Corrections = ans.SQL, ans.Corrections
			if err == nil {
				ranked = ans.Ranked
				out.Ambiguity = ans.Ambiguity()
			}
		} else {
			stmt, err = sys.Translate(cs.Question)
		}
		if err == nil {
			out.SysSQL = stmt.String()
			var sysRes *exec.Result
			if sysRes, err = exec.Query(db.Snapshot(), stmt); err == nil {
				out.Answered = true
				out.Correct = SameResult(goldRes, sysRes)
			}
		}
		if err != nil {
			out.Err = err.Error()
		}
		if ranked != nil {
			out.GoldRank = goldRank(db, goldRes, out.Correct, ranked)
		}
		rep.add(out)
	}
	return rep, nil
}

// goldRank is the 1-based rank of the first of the top three readings
// that executes to gold, 0 when none does; the first is the chosen one,
// whose verdict is correct.
func goldRank(db *store.DB, gold *exec.Result, correct bool, ranked []interp.Scored) int {
	if correct {
		return 1
	}
	for k := 1; k < len(ranked) && k < 3; k++ {
		stmt, err := iql.ToSQL(ranked[k].Query, db.Schema)
		if err != nil {
			continue
		}
		if res, err := exec.Query(db.Snapshot(), stmt); err == nil && SameResult(gold, res) {
			return k + 1
		}
	}
	return 0
}

// add counts one outcome into its class and the overall tally.
func (r *Report) add(o Outcome) {
	if r.Stats == nil {
		r.Stats = map[Class]*ClassStats{}
	}
	class := r.Stats[o.Case.Class]
	if class == nil {
		class = &ClassStats{}
		r.Stats[o.Case.Class] = class
	}
	for _, s := range []*ClassStats{class, &r.Overall} {
		s.Total++
		if o.Answered {
			s.Answered++
		}
		if o.Correct {
			s.Correct++
		}
	}
	r.Outcomes = append(r.Outcomes, o)
}

// GoldResult executes a case's gold SQL.
func GoldResult(db *store.DB, cs Case) (*exec.Result, error) {
	stmt, err := sql.Parse(cs.Gold)
	if err != nil {
		return nil, err
	}
	return exec.Query(db.Snapshot(), stmt)
}

// SameResult compares two results as bags of row tuples (order
// insensitive, duplicates significant). Column names are ignored —
// distinct-but-equivalent SQL must count as correct.
func SameResult(a, b *exec.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	counts := map[string]int{}
	for _, r := range a.Rows {
		counts[rowKey(r)]++
	}
	for _, r := range b.Rows {
		k := rowKey(r)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

func rowKey(r store.Row) string {
	key := ""
	for _, v := range r {
		key += v.Key() + "\x1f"
	}
	return key
}
