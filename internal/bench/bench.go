// Package bench is the evaluation harness: the gold question/SQL
// corpus over the three domains, execution-match scoring, typo
// injection and grammar-coverage sweeps. It scores answers and never
// times them: cmd/nlibench prints its tables (T1–T6, F3), and speed is
// the question benchmark's (benchmark/).
package bench

import (
	"fmt"

	"repro/internal/exec"
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
	rep := &Report{System: sys.Name(), Stats: map[Class]*ClassStats{}}
	for _, cs := range cases {
		stats := rep.Stats[cs.Class]
		if stats == nil {
			stats = &ClassStats{}
			rep.Stats[cs.Class] = stats
		}
		stats.Total++
		rep.Overall.Total++

		goldRes, err := runSQL(db, cs.Gold)
		if err != nil {
			return nil, fmt.Errorf("bench: gold for %s is broken: %w", cs.ID, err)
		}

		out := Outcome{Case: cs}
		stmt, err := sys.Translate(cs.Question)
		if err == nil {
			out.SysSQL = stmt.String()
			sysRes, execErr := exec.Query(db.Snapshot(), stmt)
			if execErr == nil {
				out.Answered = true
				stats.Answered++
				rep.Overall.Answered++
				if SameResult(goldRes, sysRes) {
					out.Correct = true
					stats.Correct++
					rep.Overall.Correct++
				}
			} else {
				out.Err = execErr.Error()
			}
		} else {
			out.Err = err.Error()
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}

func runSQL(db *store.DB, q string) (*exec.Result, error) {
	stmt, err := sql.Parse(q)
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
