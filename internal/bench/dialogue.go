package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
)

// DialogueCase is one multi-turn session: the final turn's state must
// execute to the gold result.
type DialogueCase struct {
	ID      string
	Domain  string
	Class   string // ellipsis class: add-condition, substitute-value, ...
	Turns   []string
	Gold    string
	Ordered bool // compare row order too (sorting follow-ups)
}

// DialogueCorpus returns the multi-turn sessions for experiment T4.
func DialogueCorpus() []DialogueCase {
	uniStudentsCS := "SELECT DISTINCT s.name FROM students s, departments d " +
		"WHERE s.dept_id = d.dept_id AND d.name = 'Computer Science'"
	return []DialogueCase{
		{
			ID: "dlg-1", Domain: "university", Class: "add-condition",
			Turns: []string{"students in Computer Science", "only those with gpa over 3.5"},
			Gold: "SELECT DISTINCT s.name FROM students s, departments d " +
				"WHERE s.dept_id = d.dept_id AND d.name = 'Computer Science' AND s.gpa > 3.5",
		},
		{
			ID: "dlg-2", Domain: "university", Class: "substitute-value",
			Turns: []string{"students in Computer Science", "what about Mathematics"},
			Gold: "SELECT DISTINCT s.name FROM students s, departments d " +
				"WHERE s.dept_id = d.dept_id AND d.name = 'Mathematics'",
		},
		{
			ID: "dlg-3", Domain: "university", Class: "count-those",
			Turns: []string{"students in Computer Science", "how many"},
			Gold: "SELECT COUNT(DISTINCT s.id) FROM students s, departments d " +
				"WHERE s.dept_id = d.dept_id AND d.name = 'Computer Science'",
		},
		{
			ID: "dlg-4", Domain: "university", Class: "change-focus",
			Turns: []string{"instructors in Physics", "show their salaries"},
			Gold: "SELECT DISTINCT i.salary FROM instructors i, departments d " +
				"WHERE i.dept_id = d.dept_id AND d.name = 'Physics'",
		},
		{
			ID: "dlg-5", Domain: "university", Class: "sort-those",
			Turns:   []string{"students in Computer Science", "sort them by gpa descending"},
			Gold:    uniStudentsCS + " ORDER BY s.gpa DESC",
			Ordered: true,
		},
		{
			ID: "dlg-6", Domain: "university", Class: "add-condition",
			Turns: []string{
				"students in Computer Science",
				"only those with gpa over 3.0",
				"how many",
			},
			Gold: "SELECT COUNT(DISTINCT s.id) FROM students s, departments d " +
				"WHERE s.dept_id = d.dept_id AND d.name = 'Computer Science' AND s.gpa > 3.0",
		},
		{
			ID: "dlg-7", Domain: "geo", Class: "substitute-value",
			Turns: []string{"cities in China", "what about India"},
			Gold: "SELECT DISTINCT c.name FROM cities c, countries k " +
				"WHERE c.country_id = k.country_id AND k.name = 'India'",
		},
		{
			ID: "dlg-8", Domain: "geo", Class: "count-those",
			Turns: []string{"rivers in China", "how many"},
			Gold: "SELECT COUNT(DISTINCT r.river_id) FROM rivers r, countries k " +
				"WHERE r.country_id = k.country_id AND k.name = 'China'",
		},
		{
			ID: "dlg-9", Domain: "sales", Class: "add-condition",
			Turns: []string{"products with price over 100", "only those in Accessories"},
			Gold:  "SELECT name FROM products WHERE price > 100 AND category = 'Accessories'",
		},
		{
			ID: "dlg-10", Domain: "university", Class: "group-those",
			Turns: []string{"students with gpa over 3.0", "group them by department"},
			Gold: "SELECT d.name, COUNT(DISTINCT s.id) FROM students s, departments d " +
				"WHERE s.dept_id = d.dept_id AND s.gpa > 3.0 GROUP BY d.name",
		},
		{
			ID: "dlg-11", Domain: "geo", Class: "change-focus",
			Turns: []string{"countries in Europe", "show their populations"},
			Gold:  "SELECT population FROM countries WHERE continent = 'Europe'",
		},
		{
			ID: "dlg-12", Domain: "sales", Class: "substitute-value",
			Turns: []string{"customers in the North region", "what about the South region"},
			Gold: "SELECT DISTINCT c.name FROM customers c, regions r " +
				"WHERE c.region_id = r.region_id AND r.name = 'South'",
		},
		{
			ID: "dlg-13", Domain: "university", Class: "drop-condition",
			Turns: []string{
				"students in Computer Science with gpa over 3.5",
				"remove the gpa condition",
			},
			Gold: "SELECT DISTINCT s.name FROM students s, departments d " +
				"WHERE s.dept_id = d.dept_id AND d.name = 'Computer Science'",
		},
		{
			ID: "dlg-14", Domain: "university", Class: "roll-up",
			Turns: []string{
				"average salary of instructors per department",
				"roll up",
			},
			Gold: "SELECT AVG(salary) FROM instructors",
		},
		{
			ID: "dlg-15", Domain: "sales", Class: "drop-condition",
			Turns: []string{
				"products in Accessories with price over 50",
				"forget the category filter",
			},
			Gold: "SELECT name FROM products WHERE price > 50",
		},
	}
}

// DialogueOutcome is one evaluated session.
type DialogueOutcome struct {
	Case    DialogueCase
	Correct bool      // the final turn executed to the gold result
	Turns   []Outcome // one per turn asked, up to the first that failed; IDs suffixed #N
}

// EvaluateDialogue runs each session through a fresh conversation and
// scores the final turn by execution match.
func EvaluateDialogue(opts core.Options, cases []DialogueCase) ([]DialogueOutcome, error) {
	engines := map[string]*core.Engine{}
	var out []DialogueOutcome
	for _, cs := range cases {
		e, ok := engines[cs.Domain]
		if !ok {
			db, err := dataset.ByName(cs.Domain, 1)
			if err != nil {
				return nil, err
			}
			e = core.NewEngine(db, opts)
			engines[cs.Domain] = e
		}
		goldRes, err := GoldResult(e.DB, Case{Gold: cs.Gold})
		if err != nil {
			return nil, fmt.Errorf("bench: gold for %s: %w", cs.ID, err)
		}

		o := DialogueOutcome{Case: cs}
		conv := e.NewConversation()
		var last *core.Answer
		for i, turn := range cs.Turns {
			ans, _, err := conv.Ask(turn)
			t := Outcome{Case: Case{ID: fmt.Sprintf("%s#%d", cs.ID, i+1), Domain: cs.Domain, Question: turn},
				Corrections: ans.Corrections}
			if ans.SQL != nil {
				t.SysSQL = ans.SQL.String()
			}
			last = nil
			if err != nil {
				t.Err = err.Error()
				o.Turns = append(o.Turns, t)
				break
			}
			t.Answered, t.Ambiguity, last = true, ans.Ambiguity(), ans
			o.Turns = append(o.Turns, t)
		}
		if last != nil {
			if cs.Ordered {
				o.Correct = orderedSame(goldRes, last.Result)
			} else {
				o.Correct = SameResult(goldRes, last.Result)
			}
			o.Turns[len(o.Turns)-1].Correct = o.Correct
		}
		out = append(out, o)
	}
	return out, nil
}

func orderedSame(a, b *exec.Result) bool {
	if a == nil || b == nil || len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Rows {
		if rowKey(a.Rows[i]) != rowKey(b.Rows[i]) {
			return false
		}
	}
	return true
}
