package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestAskErrorPathsFillTimings: failed asks must report per-stage
// latencies exactly like successful ones (regression: the error
// returns in Engine.Ask dropped the accumulated Timings; a failed
// conversation turn returned no Answer at all, and a message of its
// own). Both entry points are one pipeline, so both return the partial
// answer and the same classified error.
func TestAskErrorPathsFillTimings(t *testing.T) {
	e := uniEngine(t)
	conv := e.NewConversation()

	for _, tc := range []struct {
		name string
		ask  func(string) (*Answer, error)
	}{
		{"engine", e.Ask},
		{"conversation", func(q string) (*Answer, error) {
			ans, _, err := conv.Ask(q)
			return ans, err
		}},
	} {
		const q = "colorless green studnets sleep furiously"
		ans, err := tc.ask(q)
		if err == nil || !strings.Contains(err.Error(), "outside the grammar's coverage") {
			t.Fatalf("%s: expected an out-of-coverage error, got %v", tc.name, err)
		}
		if ans == nil {
			t.Fatalf("%s: failed asks still return the partial answer", tc.name)
		}
		if ans.Question != q || len(ans.Corrections) != 1 || ans.Corrections[0].To != "students" {
			t.Errorf("%s: partial answer lost the question or its corrections: %q %+v", tc.name, ans.Question, ans.Corrections)
		}
		if ans.Timings.Total <= 0 {
			t.Errorf("%s: interpret-error path returned zero Timings.Total", tc.name)
		}
		if ans.Timings.Annotate+ans.Timings.Parse <= 0 {
			t.Errorf("%s: interpret-error path dropped the stage timings that did run", tc.name)
		}
	}

	// The execute-error path fills the planning timing it spent.
	bad := &Answer{SQL: sql.MustParse("SELECT x FROM nonexistent")}
	if err := e.execute(context.Background(), bad, e.DB.Snapshot(), 0); err == nil {
		t.Fatal("expected a planning error for an unknown table")
	}
	if bad.Timings.Plan <= 0 {
		t.Error("execute-error path returned zero Timings.Plan")
	}
}

// TestPlanCacheAcrossConstants: questions repeating a shape with
// different constants bind a cached template instead of planning, and
// answer exactly what a fresh plan would.
func TestPlanCacheAcrossConstants(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0 // isolate the plan cache
	e := NewEngine(dataset.University(1), opts)

	cold, err := e.Ask("students with gpa over 3.5")
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCached {
		t.Error("first ask of a shape cannot be a plan-cache hit")
	}
	if cold.Timings.Plan <= 0 {
		t.Error("cold ask should report planning time")
	}

	hot, err := e.Ask("students with gpa over 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if !hot.PlanCached {
		t.Fatal("constant-differing repeat should bind the cached template")
	}
	if hot.Cached {
		t.Fatal("test premise broken: answer cache should be off")
	}
	if hot.Timings.Bind <= 0 || hot.Timings.Plan != 0 {
		t.Errorf("hot ask should bind, not plan: bind=%v plan=%v", hot.Timings.Bind, hot.Timings.Plan)
	}
	if hits, misses := e.PlanCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if hot.PlanCacheHits != 1 || hot.PlanCacheMisses != 1 {
		t.Errorf("answer counters = %d/%d, want 1/1", hot.PlanCacheHits, hot.PlanCacheMisses)
	}

	// The bound plan answers exactly as a fresh compile would.
	want, err := exec.Query(e.DB.Snapshot(), hot.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 || len(hot.Result.Rows) != len(want.Rows) {
		t.Errorf("cached-template answer has %d rows, fresh plan %d", len(hot.Result.Rows), len(want.Rows))
	}
}

// TestPlanCacheStatsEpochInvalidation: a write to a dependency table
// moves its stats epoch; the cached template misses, a fresh one is
// compiled against current statistics, and the shape turns hot again.
func TestPlanCacheStatsEpochInvalidation(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0
	e := NewEngine(dataset.University(1), opts)

	if _, err := e.Ask("students with gpa over 3.5"); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Ask("students with gpa over 3.0")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCached {
		t.Fatal("premise: shape should be hot before the load")
	}

	rows := make([]store.Row, 512)
	for i := range rows {
		rows[i] = store.Row{store.Int(int64(10000 + i)), store.Text("Bulk Student"),
			store.Int(1), store.Int(2), store.Float(3.2)}
	}
	if err := e.DB.BulkInsert("students", rows); err != nil {
		t.Fatal(err)
	}

	stale, err := e.Ask("students with gpa over 3.1")
	if err != nil {
		t.Fatal(err)
	}
	if stale.PlanCached {
		t.Error("stats-epoch move must invalidate the cached template")
	}
	fresh, err := e.Ask("students with gpa over 3.4")
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.PlanCached {
		t.Error("recompiled template should serve the shape again")
	}
}

// TestPlanCacheSurvivesDropIndex: index DDL does not move table
// versions (data is unchanged), so the plan cache's stats-epoch
// fingerprint cannot see a DropIndex — the template's own
// index-liveness check must catch it and recompile to a scan plan
// instead of probing the vanished index on every subsequent ask.
func TestPlanCacheSurvivesDropIndex(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0
	db := dataset.University(1)
	if err := db.Table("departments").BuildIndex("name"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, opts)

	first, err := e.Ask("how many students are in Computer Science")
	if err != nil {
		t.Fatal(err)
	}
	if c := first.Plan.OperatorCounts(); c["index-scan"] == 0 {
		t.Fatalf("test premise broken: plan does not probe the name index\n%s", first.Plan.Explain())
	}

	db.Table("departments").DropIndex("name")

	after, err := e.Ask("how many students are in Physics")
	if err != nil {
		t.Fatalf("ask after DropIndex must recompile, not fail: %v", err)
	}
	if after.PlanCached {
		t.Error("a plan probing a dropped index must not be reused")
	}
	if c := after.Plan.OperatorCounts(); c["index-scan"] != 0 {
		t.Errorf("recompiled plan still probes the dropped index\n%s", after.Plan.Explain())
	}
	if after.Result.Rows[0][0].Int64() == 0 {
		t.Error("recompiled plan answered nothing")
	}

	// The stale entry was replaced, not just bypassed: the shape turns
	// hot again instead of cold-planning through the cache forever.
	again, err := e.Ask("how many students are in History")
	if err != nil {
		t.Fatal(err)
	}
	if !again.PlanCached {
		t.Error("shape should be hot again after the stale template was replaced")
	}
}

// TestConversationAnswerCache: a repeated standalone turn inside a
// conversation is served from the engine answer cache (regression:
// Conversation.Ask bypassed it entirely), while follow-ups never touch
// it and the dialogue context still advances across cached turns.
func TestConversationAnswerCache(t *testing.T) {
	e := uniEngine(t)
	conv := e.NewConversation()
	q := "students with gpa over 3.5"

	first, follow, err := conv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if follow || first.Cached {
		t.Fatalf("first turn: follow=%v cached=%v", follow, first.Cached)
	}

	again, follow, err := conv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if follow {
		t.Error("repeat of a standalone turn is not a follow-up")
	}
	if !again.Cached {
		t.Error("repeated standalone turn should be served from the answer cache")
	}
	if len(again.Result.Rows) != len(first.Result.Rows) {
		t.Errorf("cached turn returned %d rows, original %d", len(again.Result.Rows), len(first.Result.Rows))
	}

	// The cached turn still updated context: a follow-up refines it.
	refined, follow, err := conv.Ask("only those in Computer Science")
	if err != nil {
		t.Fatal(err)
	}
	if !follow {
		t.Fatal("fragment should resolve as a follow-up against the cached turn's context")
	}
	if refined.Cached {
		t.Error("follow-up turns must never be served from the answer cache")
	}
	if len(refined.Result.Rows) >= len(first.Result.Rows) {
		t.Errorf("refinement should narrow results: %d -> %d rows",
			len(first.Result.Rows), len(refined.Result.Rows))
	}

	// Conversations and single-shot asks share the cache in both
	// directions: an Engine.Ask of the same standalone question hits.
	single, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Error("Engine.Ask should hit the entry the conversation stored")
	}
}
