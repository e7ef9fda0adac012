package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
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
		{"engine", func(q string) (*Answer, error) { return e.Ask(context.Background(), q, 0) }},
		{"conversation", func(q string) (*Answer, error) {
			ans, _, err := conv.Ask(context.Background(), q, 0)
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

// planCacheWorkload is template traffic: six question shapes asked
// over and over with rotating constants. Most join through
// departments, as production template traffic does; the last family
// mixes two phrasings ("students in X …" / "names of students in X …")
// that generate one SQL shape — the cache keys on the normalized
// query, not on the surface text.
var planCacheWorkload = [][]string{
	{"students with gpa over 2.1", "students with gpa over 2.4",
		"students with gpa over 2.6", "students with gpa over 2.8"},
	{"how many students are in Computer Science", "how many students are in Mathematics",
		"how many students are in Physics", "how many students are in History"},
	{"instructors with salary between 50000 and 70000", "instructors with salary between 60000 and 90000",
		"instructors with salary between 45000 and 65000", "instructors with salary between 80000 and 120000"},
	{"average salary of instructors in Computer Science", "average salary of instructors in Mathematics",
		"average salary of instructors in Physics", "average salary of instructors in History"},
	{"how many courses are in Computer Science", "how many courses are in Mathematics",
		"how many courses are in Physics", "how many courses are in History"},
	{"students in Computer Science with gpa over 2.1", "names of students in Computer Science with gpa over 3.8",
		"students in Mathematics with gpa over 2.4", "names of students in Mathematics with gpa over 3.6",
		"students in Physics with gpa over 2.6", "names of students in Physics with gpa over 3.3",
		"students in History with gpa over 2.8", "names of students in History with gpa over 3.1"},
}

// TestPlanCacheAcrossConstants: over two rounds of planCacheWorkload,
// every ask after a shape's first binds the cached template instead of
// planning — exactly one miss per shape — and answers row for row what
// an engine without a plan cache answers.
func TestPlanCacheAcrossConstants(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0 // isolate the plan cache
	opts.Parallelism = 1
	db := dataset.University(1)
	e := NewEngine(db, opts)
	refOpts := opts
	refOpts.PlanCacheSize = 0
	ref := NewEngine(db, refOpts)

	var hits, misses uint64
	for round := 0; round < 2; round++ {
		for _, shape := range planCacheWorkload {
			for i, q := range shape {
				got, err := e.Ask(context.Background(), q, 0)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				want, err := ref.Ask(context.Background(), q, 0)
				if err != nil {
					t.Fatalf("reference %q: %v", q, err)
				}
				if got.Cached || want.Cached {
					t.Fatal("test premise broken: answer cache should be off")
				}
				if round == 0 && i == 0 {
					misses++
					if got.PlanCached || got.Timings.Plan <= 0 {
						t.Errorf("%q: the first ask of a shape must plan (cached=%v plan=%v)",
							q, got.PlanCached, got.Timings.Plan)
					}
				} else {
					hits++
					if !got.PlanCached || got.Timings.Bind <= 0 || got.Timings.Plan != 0 {
						t.Errorf("%q: should bind the cached template, not plan (cached=%v bind=%v plan=%v)",
							q, got.PlanCached, got.Timings.Bind, got.Timings.Plan)
					}
				}
				if h, m := e.PlanCacheStats(); h != hits || m != misses {
					t.Errorf("%q: engine counters = %d/%d, want %d/%d", q, h, m, hits, misses)
				}
				if want.PlanCached || want.Timings.Plan <= 0 {
					t.Errorf("%q: the reference engine must plan every ask", q)
				}
				if len(want.Result.Rows) == 0 || len(got.Result.Rows) != len(want.Result.Rows) {
					t.Fatalf("%q: cached-template answer has %d rows, fresh plan %d",
						q, len(got.Result.Rows), len(want.Result.Rows))
				}
				for r, row := range got.Result.Rows {
					if len(row) != len(want.Result.Rows[r]) {
						t.Fatalf("%q: row %d has %d columns, fresh plan %d", q, r, len(row), len(want.Result.Rows[r]))
					}
					for c, v := range row {
						if v.Key() != want.Result.Rows[r][c].Key() {
							t.Fatalf("%q: row %d column %d = %v, fresh plan %v", q, r, c, v, want.Result.Rows[r][c])
						}
					}
				}
			}
		}
	}
	if h, m := e.PlanCacheStats(); m != uint64(len(planCacheWorkload)) || h != hits || m != misses {
		t.Errorf("stats = %d hits / %d misses, want %d / %d", h, m, hits, len(planCacheWorkload))
	}
	if h, m := ref.PlanCacheStats(); h != 0 || m != 0 {
		t.Errorf("reference engine stats = %d/%d, want 0/0", h, m)
	}
}

// TestPlanCacheStatsEpochInvalidation: a write to a dependency table
// moves its stats epoch; the cached template misses, a fresh one is
// compiled against current statistics, and the shape turns hot again.
func TestPlanCacheStatsEpochInvalidation(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0
	e := NewEngine(dataset.University(1), opts)

	if _, err := e.Ask(context.Background(), "students with gpa over 3.5", 0); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Ask(context.Background(), "students with gpa over 3.0", 0)
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

	stale, err := e.Ask(context.Background(), "students with gpa over 3.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stale.PlanCached {
		t.Error("stats-epoch move must invalidate the cached template")
	}
	fresh, err := e.Ask(context.Background(), "students with gpa over 3.4", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.PlanCached {
		t.Error("recompiled template should serve the shape again")
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

	first, follow, err := conv.Ask(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if follow || first.Cached {
		t.Fatalf("first turn: follow=%v cached=%v", follow, first.Cached)
	}

	again, follow, err := conv.Ask(context.Background(), q, 0)
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
	refined, follow, err := conv.Ask(context.Background(), "only those in Computer Science", 0)
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
	single, err := e.Ask(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Error("Engine.Ask should hit the entry the conversation stored")
	}
}
