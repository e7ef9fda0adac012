package dialog

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/grammar"
	"repro/internal/interp"
	"repro/internal/iql"
	"repro/internal/semindex"
	"repro/internal/strutil"
)

func uniSession(t testing.TB) *Session {
	t.Helper()
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := grammar.New(idx, grammar.DefaultOptions())
	return NewSession(g, db.Schema, interp.DefaultWeights())
}

func mustAsk(t *testing.T, s *Session, q string) *Turn {
	t.Helper()
	turn, err := s.Ask(q)
	if err != nil {
		t.Fatalf("Ask(%q): %v", q, err)
	}
	return turn
}

func TestFullQuestionStartsContext(t *testing.T) {
	s := uniSession(t)
	turn := mustAsk(t, s, "students in Computer Science")
	if turn.FollowUp {
		t.Error("first turn reported as follow-up")
	}
	if s.Context() == nil || s.Context().Entity != "students" {
		t.Errorf("context = %v", s.Context())
	}
}

func TestAddConditionFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	turn := mustAsk(t, s, "only those with gpa over 3.5")
	if !turn.FollowUp {
		t.Fatal("refinement not detected as follow-up")
	}
	q := turn.Query
	if len(q.Conds) != 2 {
		t.Fatalf("conds = %v", q.Conds)
	}
	if q.Entity != "students" {
		t.Errorf("entity changed to %q", q.Entity)
	}
}

func TestSubstituteValueFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	turn := mustAsk(t, s, "what about Mathematics")
	if !turn.FollowUp {
		t.Fatal("substitution not detected as follow-up")
	}
	q := turn.Query
	if len(q.Conds) != 1 {
		t.Fatalf("conds = %v (substitution must replace, not add)", q.Conds)
	}
	if q.Conds[0].Value.Str() != "Mathematics" {
		t.Errorf("cond = %+v", q.Conds[0])
	}
}

func TestCountFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science with gpa over 3.5")
	turn := mustAsk(t, s, "how many")
	if !turn.FollowUp {
		t.Fatal("count not detected as follow-up")
	}
	q := turn.Query
	if len(q.Outputs) != 1 || !q.Outputs[0].CountStar {
		t.Fatalf("outputs = %v", q.Outputs)
	}
	if len(q.Conds) != 2 {
		t.Errorf("conditions lost: %v", q.Conds)
	}
}

func TestChangeFocusFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "instructors in Computer Science")
	turn := mustAsk(t, s, "show their salaries")
	if !turn.FollowUp {
		t.Fatal("focus change not detected as follow-up")
	}
	q := turn.Query
	if len(q.Outputs) != 1 || q.Outputs[0].Field.Column != "salary" {
		t.Fatalf("outputs = %+v", q.Outputs)
	}
}

func TestSortFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	turn := mustAsk(t, s, "sort them by gpa descending")
	if !turn.FollowUp {
		t.Fatal("sort not detected as follow-up")
	}
	q := turn.Query
	if q.Order == nil || !q.Order.Desc || q.Order.Field.Column != "gpa" {
		t.Fatalf("order = %+v", q.Order)
	}
}

func TestGroupFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students with gpa over 3.0")
	turn := mustAsk(t, s, "group them by department")
	if !turn.FollowUp {
		t.Fatal("grouping not detected as follow-up")
	}
	q := turn.Query
	if len(q.GroupBy) != 1 || q.GroupBy[0].Table != "departments" {
		t.Fatalf("group = %+v", q.GroupBy)
	}
	if len(q.Outputs) != 1 || !q.Outputs[0].CountStar {
		t.Errorf("grouped listing should count: %+v", q.Outputs)
	}
}

func TestNewFullQuestionReplacesContext(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	turn := mustAsk(t, s, "list all departments")
	if turn.FollowUp {
		t.Error("full question misread as follow-up")
	}
	if turn.Query.Entity != "departments" {
		t.Errorf("entity = %q", turn.Query.Entity)
	}
}

func TestMultiTurnSessionExecutes(t *testing.T) {
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	g := grammar.New(idx, grammar.DefaultOptions())
	s := NewSession(g, db.Schema, interp.DefaultWeights())

	turnRows := func(q string) int {
		t.Helper()
		turn := mustAsk(t, s, q)
		stmt, err := iql.ToSQL(turn.Query, db.Schema)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		res, err := exec.Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return len(res.Rows)
	}

	all := turnRows("students in Computer Science")
	refined := turnRows("only those with gpa over 3.5")
	if refined >= all {
		t.Errorf("refinement did not narrow: %d -> %d", all, refined)
	}
	count := mustAsk(t, s, "how many")
	stmt, err := iql.ToSQL(count.Query, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Rows[0][0].Int64()) != refined {
		t.Errorf("count %v != listed %d", res.Rows[0][0], refined)
	}
	if s.Turns() != 3 {
		t.Errorf("turns = %d", s.Turns())
	}
}

func TestErrorsWithoutContext(t *testing.T) {
	s := uniSession(t)
	if _, err := s.Ask("only those with gpa over 3.5"); err == nil {
		t.Error("fragment without context should fail")
	}
	if _, err := s.Ask("colorless green ideas"); err == nil {
		t.Error("gibberish should fail")
	}
}

func TestUnrelatableFragmentFails(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	if _, err := s.Ask("quantum flux capacitor"); err == nil {
		t.Error("unrelatable fragment should fail")
	}
}

func TestReset(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	s.Reset()
	if s.Context() != nil {
		t.Error("Reset did not clear context")
	}
	if _, err := s.Ask("how many"); err == nil {
		t.Error("fragment after reset should fail")
	}
}

func TestComparativeRefinementReplacesSameOp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students with gpa over 3.0")
	turn := mustAsk(t, s, "only those with gpa over 3.5")
	q := turn.Query
	if len(q.Conds) != 1 {
		t.Fatalf("conds = %v (same-op refinement must replace)", q.Conds)
	}
	if f, _ := q.Conds[0].Value.AsFloat(); f != 3.5 {
		t.Errorf("value = %v", q.Conds[0].Value)
	}
	// Opposite direction accumulates into a range.
	turn = mustAsk(t, s, "and with gpa under 3.9")
	if len(turn.Query.Conds) != 2 {
		t.Errorf("conds = %v (range should accumulate)", turn.Query.Conds)
	}
}

func TestDropConditionFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science with gpa over 3.5")
	turn := mustAsk(t, s, "remove the gpa condition")
	if !turn.FollowUp {
		t.Fatal("drop not detected as follow-up")
	}
	if len(turn.Query.Conds) != 1 {
		t.Fatalf("conds = %v", turn.Query.Conds)
	}
	if turn.Query.Conds[0].Field.Table != "departments" {
		t.Errorf("wrong condition dropped: %v", turn.Query.Conds)
	}
	// Dropping by table name removes the department restriction too.
	turn = mustAsk(t, s, "forget the department filter")
	if len(turn.Query.Conds) != 0 {
		t.Errorf("conds = %v", turn.Query.Conds)
	}
}

func TestDropNonexistentConditionFails(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "students in Computer Science")
	if _, err := s.Ask("remove the salary condition"); err == nil {
		t.Error("dropping a non-existent condition should fail")
	}
}

func TestRollupFollowUp(t *testing.T) {
	s := uniSession(t)
	mustAsk(t, s, "average salary of instructors per department")
	turn := mustAsk(t, s, "roll up")
	if !turn.FollowUp {
		t.Fatal("rollup not detected as follow-up")
	}
	if len(turn.Query.GroupBy) != 0 {
		t.Errorf("grouping survived: %v", turn.Query.GroupBy)
	}
	if len(turn.Query.Outputs) != 1 || turn.Query.Outputs[0].Agg == 0 {
		t.Errorf("aggregate lost: %+v", turn.Query.Outputs)
	}
	// Rolling up an ungrouped query fails.
	if _, err := s.Ask("roll up"); err == nil {
		t.Error("rollup without grouping should fail")
	}
}

// TestAskTokensPreservesTokens: the token-level entry point must feed
// the parser the exact tokens it was given — no string round-trip that
// could corrupt punctuation inside quoted values — and report stage
// timings.
func TestAskTokensPreservesTokens(t *testing.T) {
	s := uniSession(t)
	toks := strutil.Tokenize("students in Computer Science")
	turn, err := s.AskTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	if turn.Query == nil || turn.FollowUp {
		t.Fatalf("turn = %+v", turn)
	}
	if turn.Annotate < 0 || turn.Parse <= 0 {
		t.Errorf("stage timings not populated: %+v", turn)
	}

	// A follow-up fragment through the same entry point accumulates
	// parse time over both readings and resolves against context.
	frag, err := s.AskTokens(strutil.Tokenize("only those with gpa over 3.5"))
	if err != nil {
		t.Fatal(err)
	}
	if !frag.FollowUp {
		t.Error("fragment should resolve against context")
	}
	if frag.Parse <= 0 || frag.Rank <= 0 {
		t.Errorf("fragment timings not populated: %+v", frag)
	}
}
