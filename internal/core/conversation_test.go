package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/iql"
)

// Follow-up resolution, one ellipsis class per test: what Query a turn
// chooses and whether it was read against the conversation's context.

func mustTurn(t *testing.T, c *Conversation, q string) (*iql.Query, bool) {
	t.Helper()
	ans, followUp, err := c.Ask(context.Background(), q, 0)
	if err != nil {
		t.Fatalf("Ask(%q): %v", q, err)
	}
	return ans.Query, followUp
}

func TestFullQuestionStartsContext(t *testing.T) {
	c := uniEngine(t).NewConversation()
	if _, followUp := mustTurn(t, c, "students in Computer Science"); followUp {
		t.Error("first turn reported as follow-up")
	}
	if c.Context() == nil || c.Context().Entity != "students" {
		t.Errorf("context = %v", c.Context())
	}
}

func TestAddConditionFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	q, followUp := mustTurn(t, c, "only those with gpa over 3.5")
	if !followUp {
		t.Fatal("refinement not detected as follow-up")
	}
	if len(q.Conds) != 2 {
		t.Fatalf("conds = %v", q.Conds)
	}
	if q.Entity != "students" {
		t.Errorf("entity changed to %q", q.Entity)
	}
}

func TestSubstituteValueFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	q, followUp := mustTurn(t, c, "what about Mathematics")
	if !followUp {
		t.Fatal("substitution not detected as follow-up")
	}
	if len(q.Conds) != 1 {
		t.Fatalf("conds = %v (substitution must replace, not add)", q.Conds)
	}
	if q.Conds[0].Value.Str() != "Mathematics" {
		t.Errorf("cond = %+v", q.Conds[0])
	}
}

func TestCountFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science with gpa over 3.5")
	q, followUp := mustTurn(t, c, "how many")
	if !followUp {
		t.Fatal("count not detected as follow-up")
	}
	if len(q.Outputs) != 1 || !q.Outputs[0].CountStar {
		t.Fatalf("outputs = %v", q.Outputs)
	}
	if len(q.Conds) != 2 {
		t.Errorf("conditions lost: %v", q.Conds)
	}
}

func TestChangeFocusFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "instructors in Computer Science")
	q, followUp := mustTurn(t, c, "show their salaries")
	if !followUp {
		t.Fatal("focus change not detected as follow-up")
	}
	if len(q.Outputs) != 1 || q.Outputs[0].Field.Column != "salary" {
		t.Fatalf("outputs = %+v", q.Outputs)
	}
}

func TestSortFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	q, followUp := mustTurn(t, c, "sort them by gpa descending")
	if !followUp {
		t.Fatal("sort not detected as follow-up")
	}
	if q.Order == nil || !q.Order.Desc || q.Order.Field.Column != "gpa" {
		t.Fatalf("order = %+v", q.Order)
	}
}

func TestGroupFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students with gpa over 3.0")
	q, followUp := mustTurn(t, c, "group them by department")
	if !followUp {
		t.Fatal("grouping not detected as follow-up")
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Table != "departments" {
		t.Fatalf("group = %+v", q.GroupBy)
	}
	if len(q.Outputs) != 1 || !q.Outputs[0].CountStar {
		t.Errorf("grouped listing should count: %+v", q.Outputs)
	}
}

func TestNewFullQuestionReplacesContext(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	q, followUp := mustTurn(t, c, "list all departments")
	if followUp {
		t.Error("full question misread as follow-up")
	}
	if q.Entity != "departments" {
		t.Errorf("entity = %q", q.Entity)
	}
	if c.Context() != q {
		t.Error("context is not the full question that replaced it")
	}
}

func TestMultiTurnSessionExecutes(t *testing.T) {
	c := uniEngine(t).NewConversation()
	turnRows := func(q string) int {
		t.Helper()
		ans, _, err := c.Ask(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return len(ans.Result.Rows)
	}

	all := turnRows("students in Computer Science")
	refined := turnRows("only those with gpa over 3.5")
	if refined >= all {
		t.Errorf("refinement did not narrow: %d -> %d", all, refined)
	}
	count, _, err := c.Ask(context.Background(), "how many", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerCount(t, count); got != refined {
		t.Errorf("count %d != listed %d", got, refined)
	}
}

func TestErrorsWithoutContext(t *testing.T) {
	c := uniEngine(t).NewConversation()
	for _, q := range []string{"only those with gpa over 3.5", "colorless green ideas"} {
		_, _, err := c.Ask(context.Background(), q, 0)
		if err == nil {
			t.Errorf("%q without context should fail", q)
			continue
		}
		// No context to relate to: the message is the single-shot one.
		if _, single := c.e.Ask(context.Background(), q, 0); single == nil || single.Error() != err.Error() {
			t.Errorf("%q: conversation says %q, engine says %v", q, err, single)
		}
	}
}

func TestUnrelatableFragmentFails(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	_, _, err := c.Ask(context.Background(), "quantum flux capacitor", 0)
	if err == nil {
		t.Fatal("unrelatable fragment should fail")
	}
	if !strings.Contains(err.Error(), "to the current context") {
		t.Errorf("a rejected fragment names the context it could not be related to: %v", err)
	}
}

func TestReset(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	c.Reset()
	if c.Context() != nil {
		t.Error("Reset did not clear context")
	}
	if _, _, err := c.Ask(context.Background(), "how many", 0); err == nil {
		t.Error("fragment after reset should fail")
	}
}

func TestComparativeRefinementReplacesSameOp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students with gpa over 3.0")
	q, _ := mustTurn(t, c, "only those with gpa over 3.5")
	if len(q.Conds) != 1 {
		t.Fatalf("conds = %v (same-op refinement must replace)", q.Conds)
	}
	if f, _ := q.Conds[0].Value.AsFloat(); f != 3.5 {
		t.Errorf("value = %v", q.Conds[0].Value)
	}
	// Opposite direction accumulates into a range.
	q, _ = mustTurn(t, c, "and with gpa under 3.9")
	if len(q.Conds) != 2 {
		t.Errorf("conds = %v (range should accumulate)", q.Conds)
	}
}

func TestDropConditionFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science with gpa over 3.5")
	q, followUp := mustTurn(t, c, "remove the gpa condition")
	if !followUp {
		t.Fatal("drop not detected as follow-up")
	}
	if len(q.Conds) != 1 {
		t.Fatalf("conds = %v", q.Conds)
	}
	if q.Conds[0].Field.Table != "departments" {
		t.Errorf("wrong condition dropped: %v", q.Conds)
	}
	// Dropping by table name removes the department restriction too.
	q, _ = mustTurn(t, c, "forget the department filter")
	if len(q.Conds) != 0 {
		t.Errorf("conds = %v", q.Conds)
	}
}

func TestDropNonexistentConditionFails(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "students in Computer Science")
	if _, _, err := c.Ask(context.Background(), "remove the salary condition", 0); err == nil {
		t.Error("dropping a non-existent condition should fail")
	}
}

func TestRollupFollowUp(t *testing.T) {
	c := uniEngine(t).NewConversation()
	mustTurn(t, c, "average salary of instructors per department")
	q, followUp := mustTurn(t, c, "roll up")
	if !followUp {
		t.Fatal("rollup not detected as follow-up")
	}
	if len(q.GroupBy) != 0 {
		t.Errorf("grouping survived: %v", q.GroupBy)
	}
	if len(q.Outputs) != 1 || q.Outputs[0].Agg == 0 {
		t.Errorf("aggregate lost: %+v", q.Outputs)
	}
	// Rolling up an ungrouped query fails.
	if _, _, err := c.Ask(context.Background(), "roll up", 0); err == nil {
		t.Error("rollup without grouping should fail")
	}
}

// TestFollowUpStageTimings: a fragment turn is read both ways over one
// annotation, so its Parse and Rank accumulate over both readings; a
// full question reports the one reading it took.
func TestFollowUpStageTimings(t *testing.T) {
	c := uniEngine(t).NewConversation()
	ans, followUp, err := c.Ask(context.Background(), "students in Computer Science", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Query == nil || followUp {
		t.Fatalf("query = %v, followUp = %v", ans.Query, followUp)
	}
	if ans.Timings.Annotate < 0 || ans.Timings.Parse <= 0 {
		t.Errorf("stage timings not populated: %+v", ans.Timings)
	}

	frag, followUp, err := c.Ask(context.Background(), "only those with gpa over 3.5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !followUp {
		t.Error("fragment should resolve against context")
	}
	if frag.Timings.Parse <= 0 || frag.Timings.Rank <= 0 {
		t.Errorf("fragment timings not populated: %+v", frag.Timings)
	}
}

// TestFailedTurnKeepsContext: the context is the last question the
// caller saw answered. A turn that fails — cancelled before execution,
// past its deadline, outside the grammar, or a fragment nothing relates
// — must leave it pointer-equal to what it was, so the fragment that
// follows refines that question and not one whose answer never arrived
// (regression: the context moved at parse time, before execute ran).
func TestFailedTurnKeepsContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	for _, tc := range []struct {
		name string
		ctx  context.Context
		turn string
	}{
		{"pre-cancelled ctx", cancelled, "instructors in Physics"},
		{"expired deadline", expired, "instructors in Physics"},
		{"outside coverage", context.Background(), "colorless green ideas sleep furiously"},
		{"unrelatable fragment", context.Background(), "remove the salary condition"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := uniEngine(t).NewConversation()
			mustTurn(t, c, "students in Computer Science")
			before := c.Context()

			ans, _, err := c.Ask(tc.ctx, tc.turn, 0)
			if err == nil {
				t.Fatalf("%q should fail", tc.turn)
			}
			if ans == nil || ans.Question != tc.turn || ans.Timings.Total <= 0 {
				t.Errorf("failed turn's partial answer = %+v", ans)
			}
			if c.Context() != before {
				t.Fatalf("failed turn moved the context: %v -> %v", before, c.Context())
			}

			q, followUp := mustTurn(t, c, "only those with gpa over 3.5")
			if !followUp || q.Entity != "students" || len(q.Conds) != 2 {
				t.Errorf("fragment after the failure refined %v (followUp=%v), want students in Computer Science", q, followUp)
			}
		})
	}
}
