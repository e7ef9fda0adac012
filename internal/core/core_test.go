package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/semindex"
	"repro/internal/store"
)

func uniEngine(t testing.TB) *Engine {
	t.Helper()
	return NewEngine(dataset.University(1), DefaultOptions())
}

func TestAskEndToEnd(t *testing.T) {
	e := uniEngine(t)
	ans, err := e.Ask("how many students are in Computer Science?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Rows[0][0].Int64() != 30 {
		t.Errorf("count = %v (sql %s)", ans.Result.Rows[0][0], ans.SQL)
	}
	if ans.Paraphrase == "" || ans.Response == "" {
		t.Error("echo/response missing")
	}
	if !strings.Contains(ans.Response, "30") {
		t.Errorf("response = %q", ans.Response)
	}
	if ans.Timings.Total <= 0 || ans.Timings.Verbalize <= 0 {
		t.Errorf("timings not recorded: %+v", ans.Timings)
	}
}

// TestEchoNamesTablePlurals: the echo of a question names a table by
// its plural, not by its singular plus "s".
func TestEchoNamesTablePlurals(t *testing.T) {
	e := NewEngine(dataset.Geo(), DefaultOptions())
	ans, err := e.Ask("rivers in China")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Paraphrase, "name of countries") || strings.Contains(ans.Paraphrase, "countrys") {
		t.Errorf("echo = %q, want it to name countries", ans.Paraphrase)
	}
}

func TestAskWithTypo(t *testing.T) {
	e := uniEngine(t)
	ans, err := e.Ask("studnets with gpa over 3.5")
	if err != nil {
		t.Fatalf("typo not recovered: %v", err)
	}
	if len(ans.Corrections) != 1 || ans.Corrections[0].To != "students" {
		t.Errorf("corrections = %+v", ans.Corrections)
	}
	if len(ans.Result.Rows) == 0 {
		t.Error("no rows")
	}
}

func TestSpellingDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.SpellMaxDist = 0
	e := NewEngine(dataset.University(1), opts)
	if _, err := e.Ask("studnets with gpa over 3.5"); err == nil {
		t.Error("typo should fail with correction disabled")
	}
}

func TestAskOutsideCoverage(t *testing.T) {
	e := uniEngine(t)
	_, err := e.Ask("what is the meaning of life")
	if err == nil || !strings.Contains(err.Error(), "coverage") {
		t.Errorf("err = %v", err)
	}
}

func TestTranslateSystemInterface(t *testing.T) {
	e := uniEngine(t)
	if e.Name() != "nli" {
		t.Error("name wrong")
	}
	stmt, err := e.Translate("average salary of instructors")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "AVG(instructors.salary)") {
		t.Errorf("sql = %s", stmt)
	}
}

func TestAmbiguityReported(t *testing.T) {
	e := NewEngine(dataset.Geo(), DefaultOptions())
	ans, err := e.Ask("the population of Brazil")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Ambiguity().Candidates < 2 {
		t.Errorf("expected ambiguity, got %d", ans.Ambiguity().Candidates)
	}
	// Top interpretation: countries.population = single scalar.
	if len(ans.Result.Rows) != 1 {
		t.Errorf("rows = %v (sql %s)", ans.Result.Rows, ans.SQL)
	}
}

func TestConversationFlow(t *testing.T) {
	e := uniEngine(t)
	conv := e.NewConversation()

	ans, follow, err := conv.Ask("students in Computer Science")
	if err != nil || follow {
		t.Fatalf("turn 1: %v follow=%v", err, follow)
	}
	n1 := len(ans.Result.Rows)

	ans, follow, err = conv.Ask("only those with gpa over 3.5")
	if err != nil || !follow {
		t.Fatalf("turn 2: %v follow=%v", err, follow)
	}
	if len(ans.Result.Rows) >= n1 {
		t.Errorf("refinement did not narrow: %d -> %d", n1, len(ans.Result.Rows))
	}

	ans, follow, err = conv.Ask("how many")
	if err != nil || !follow {
		t.Fatalf("turn 3: %v follow=%v", err, follow)
	}
	if !strings.Contains(ans.Response, "There are") {
		t.Errorf("response = %q", ans.Response)
	}

	conv.Reset()
	if conv.Context() != nil {
		t.Error("Reset failed")
	}
}

func TestConversationCorrectsSpelling(t *testing.T) {
	e := uniEngine(t)
	conv := e.NewConversation()
	if _, _, err := conv.Ask("studnets in Computer Science"); err != nil {
		t.Fatalf("conversation typo not recovered: %v", err)
	}
}

// TestConversationCorrectionsAndTimings: conversational answers must
// report spelling corrections and per-stage timings exactly like the
// single-shot path — including on a typo'd follow-up fragment.
func TestConversationCorrectionsAndTimings(t *testing.T) {
	e := uniEngine(t)
	conv := e.NewConversation()

	ans, follow, err := conv.Ask("studnets in Computer Science")
	if err != nil {
		t.Fatal(err)
	}
	if follow {
		t.Error("turn 1 should not be a follow-up")
	}
	if len(ans.Corrections) != 1 || ans.Corrections[0].To != "students" {
		t.Errorf("turn 1 corrections = %+v", ans.Corrections)
	}
	if ans.Timings.Total <= 0 || ans.Timings.Execute <= 0 || ans.Timings.Parse <= 0 {
		t.Errorf("turn 1 timings not populated: %+v", ans.Timings)
	}

	ans, follow, err = conv.Ask("only those with gpq over 3.5")
	if err != nil {
		t.Fatalf("typo'd follow-up failed: %v", err)
	}
	if !follow {
		t.Error("turn 2 should resolve against context")
	}
	if len(ans.Corrections) != 1 || ans.Corrections[0].To != "gpa" {
		t.Errorf("follow-up corrections = %+v", ans.Corrections)
	}
	if ans.Timings.Total <= 0 || ans.Timings.Execute <= 0 || ans.Timings.Verbalize <= 0 {
		t.Errorf("follow-up timings not populated: %+v", ans.Timings)
	}
	if ans.Question != "only those with gpq over 3.5" {
		t.Errorf("follow-up question = %q", ans.Question)
	}
}

// TestAnswerCache: a repeated question is served from the cache, a
// typo'd variant correcting to the same tokens shares the entry but
// reports its own corrections, and any data mutation invalidates.
func TestAnswerCache(t *testing.T) {
	e := uniEngine(t)
	first, err := e.Ask("students with gpa over 3.5")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first ask must not be cached")
	}

	again, err := e.Ask("students with gpa over 3.5")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat ask should hit the cache")
	}
	if len(again.Result.Rows) != len(first.Result.Rows) {
		t.Errorf("cached result differs: %d vs %d rows", len(again.Result.Rows), len(first.Result.Rows))
	}
	if again.Timings.Total <= 0 {
		t.Error("cached answer should still report total latency")
	}

	// Mutating a returned answer must not poison the cache: answers
	// cross the cache boundary as defensive copies.
	if len(again.Result.Rows) > 1 {
		again.Result.Rows[0], again.Result.Rows[1] = again.Result.Rows[1], again.Result.Rows[0]
		clean, err := e.Ask("students with gpa over 3.5")
		if err != nil {
			t.Fatal(err)
		}
		if !store.Equal(clean.Result.Rows[0][0], first.Result.Rows[0][0]) {
			t.Error("caller mutation leaked into the cached answer")
		}
	}

	typod, err := e.Ask("studnets with gpa over 3.5")
	if err != nil {
		t.Fatal(err)
	}
	if !typod.Cached {
		t.Error("typo correcting to the same tokens should hit the cache")
	}
	if len(typod.Corrections) != 1 || typod.Corrections[0].To != "students" {
		t.Errorf("cached hit must carry this ask's corrections, got %+v", typod.Corrections)
	}

	// Mutating the store invalidates: the next ask recomputes and sees
	// the new row.
	n := len(first.Result.Rows)
	id := int64(e.DB.Table("students").Snap().Len() + 1)
	if err := e.DB.Insert("students",
		store.Int(id), store.Text("Zefram Cochrane"), store.Int(1),
		store.Int(4), store.Float(3.99)); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Ask("students with gpa over 3.5")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Error("ask after mutation must not be served from the stale cache")
	}
	if len(fresh.Result.Rows) != n+1 {
		t.Errorf("fresh ask missed the inserted row: %d rows, want %d", len(fresh.Result.Rows), n+1)
	}
}

// TestMissOwnsItsCols: a miss's Result must be the caller's own, not
// the cached plan's Cols nor the rows the answer-cache entry shares.
// Overwriting a column name on one answer and then asking the same
// shape with another constant (plan-cache hit, answer-cache miss) must
// still report the original name; overwriting, appending to and
// regrowing the rows of a miss must leave what a later hit of the same
// question returns as it was — through Ask, AskCtx and a conversation
// alike.
func TestMissOwnsItsCols(t *testing.T) {
	for _, via := range []string{"Ask", "AskCtx", "Conversation.Ask"} {
		e := uniEngine(t)
		var ask func(q string) (*Answer, error)
		switch via {
		case "Ask":
			ask = e.Ask
		case "AskCtx":
			ask = func(q string) (*Answer, error) { return e.AskCtx(context.Background(), q) }
		default:
			conv := e.NewConversation()
			ask = func(q string) (*Answer, error) {
				ans, _, err := conv.Ask(q)
				return ans, err
			}
		}
		first, err := ask("students with gpa over 3.5")
		if err != nil {
			t.Fatal(err)
		}
		if first.Cached || len(first.Result.Rows) < 2 {
			t.Fatalf("%s: first ask Cached=%v with %d rows, want a miss of several", via, first.Cached, len(first.Result.Rows))
		}
		want := first.Result.Cols[0]
		wantRows := fmt.Sprint(first.Result.Rows)
		first.Result.Cols[0] = "clobbered"
		rows := first.Result.Rows
		rows[0][0] = store.Text("clobbered")
		rows[1] = append(rows[1], store.Text("appended"))
		first.Result.Rows = append(rows[:1], store.Row{store.Text("regrown")})

		second, err := ask("students with gpa over 3.6")
		if err != nil {
			t.Fatal(err)
		}
		if !second.PlanCached || second.Cached {
			t.Fatalf("%s: second ask PlanCached=%v Cached=%v, want a plan-cache hit and an answer-cache miss",
				via, second.PlanCached, second.Cached)
		}
		if got := second.Result.Cols[0]; got != want {
			t.Errorf("%s: column renamed to %q for a later ask of the plan shape, want %q", via, got, want)
		}

		hit, err := ask("students with gpa over 3.5")
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached {
			t.Fatalf("%s: third ask Cached=false, want an answer-cache hit", via)
		}
		if got := fmt.Sprint(hit.Result.Rows); got != wantRows {
			t.Errorf("%s: a hit after the miss's rows were written returns\n%s\nwant\n%s", via, got, wantRows)
		}
		if got := hit.Result.Cols[0]; got != want {
			t.Errorf("%s: a hit after the miss's Cols were written names column %q, want %q", via, got, want)
		}
	}
}

// TestParallelismAblation: Parallelism 1 must produce byte-identical
// plans and results to the default hardware-width setting.
func TestParallelismAblation(t *testing.T) {
	serialOpts := DefaultOptions()
	serialOpts.Parallelism = 1
	serialOpts.AnswerCacheSize = 0
	parOpts := DefaultOptions()
	parOpts.Parallelism = 4
	parOpts.AnswerCacheSize = 0

	db := dataset.University(4)
	serial := NewEngine(db, serialOpts)
	par := NewEngine(db, parOpts)
	for _, q := range []string{
		"average salary of instructors per department",
		"how many students are in Computer Science",
	} {
		sa, err := serial.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := par.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Plan.Par > 1 {
			t.Errorf("%q: serial engine produced a parallel plan", q)
		}
		if len(sa.Result.Rows) != len(pa.Result.Rows) {
			t.Errorf("%q: row counts differ: %d vs %d", q, len(sa.Result.Rows), len(pa.Result.Rows))
		}
		if sa.Response != pa.Response {
			t.Errorf("%q: responses differ: %q vs %q", q, sa.Response, pa.Response)
		}
	}
}

// TestConcurrentConversations: many dialogue sessions over one shared
// engine, plus concurrent turns on a single session, must be race-free
// (CI runs this under -race) and each multi-turn refinement must still
// resolve correctly.
func TestConcurrentConversations(t *testing.T) {
	e := uniEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conv := e.NewConversation()
			if _, _, err := conv.Ask("students in Computer Science"); err != nil {
				errs <- err
				return
			}
			ans, follow, err := conv.Ask("only those with gpa over 3.5")
			if err != nil {
				errs <- err
				return
			}
			if !follow {
				errs <- fmt.Errorf("refinement not treated as follow-up")
			}
			if len(ans.Corrections) != 0 {
				errs <- fmt.Errorf("unexpected corrections %+v", ans.Corrections)
			}
		}()
	}
	// One shared conversation hammered from several goroutines: turns
	// serialize internally, so every call must return a coherent answer.
	shared := e.NewConversation()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := shared.Ask("students in Computer Science"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestAblatedIndexOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.Index = semindex.Options{Synonyms: false, Stems: false, Values: false}
	e := NewEngine(dataset.University(1), opts)
	// Without the value index, a value-conditioned question fails...
	if _, err := e.Ask("students in Computer Science"); err == nil {
		t.Error("value condition should fail without value index")
	}
	// ...but schema-name questions still work.
	if _, err := e.Ask("how many students"); err != nil {
		t.Errorf("bare count should still work: %v", err)
	}
}

// uncachedOptions measures the pipeline, not the answer cache.
func uncachedOptions() Options {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0
	return opts
}

// BenchmarkAskSimple is an uncached ask whose candidates come from the
// reading cache: one ask before the timer stores its shape, so every
// timed ask binds instead of parsing.
func BenchmarkAskSimple(b *testing.B) {
	e := NewEngine(dataset.University(1), uncachedOptions())
	if _, err := e.Ask("students with gpa over 3.5"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ask("students with gpa over 3.5"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskLearn is an ask that misses every cache and learns its
// shape: with PlanCacheSize 1 the two questions evict each other's
// reading and plan, so every ask parses, parses its shape again with
// sentinels, ranks, plans and executes.
func BenchmarkAskLearn(b *testing.B) {
	opts := uncachedOptions()
	opts.PlanCacheSize = 1
	e := NewEngine(dataset.University(1), opts)
	qs := []string{"students with gpa over 3.5", "instructors with salary over 50000"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ask(qs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h, _ := e.ReadingCacheStats(); h != 0 {
		b.Fatalf("%d reading-cache hits, want every ask a miss", h)
	}
}

// BenchmarkAskFresh is the question benchmark's ask_fresh stream in
// process: its six question shapes over the university database at
// scale 4, in rotation, each op with constants no earlier op used,
// asked through AskShedCtx as the server asks. Every timed op binds its
// candidates from the reading cache, misses the answer cache, plans
// through the template cache, executes and stores its answer.
func BenchmarkAskFresh(b *testing.B) {
	e := NewEngine(dataset.University(4), DefaultOptions())
	depts := []string{"Computer Science", "Mathematics", "Physics", "History", "Biology", "Economics"}
	gpa := func(milli int) string { return strconv.FormatFloat(float64(milli)/1000, 'f', -1, 64) }
	question := func(i int) string {
		k := i / 6 % 2048
		switch i % 6 {
		case 0:
			return "students with gpa over " + gpa(1900+k)
		case 1:
			lo := 45000 + 100*(k%64)
			return fmt.Sprintf("instructors with salary between %d and %d", lo, lo+5000+250*(k/64))
		case 2:
			return fmt.Sprintf("students in %s with gpa over %s", depts[k%6], gpa(1900+6*(k/6)))
		case 3:
			return fmt.Sprintf("names of students in %s with gpa over %s", depts[k%6], gpa(1900+6*(k/6)))
		case 4:
			return fmt.Sprintf("show the name and salary of instructors with salary over %d", 45000+25*k)
		}
		return fmt.Sprintf("average salary of instructors with salary over %d per department", 45000+25*k)
	}
	// A department name is part of a shape, so the six shapes are 16
	// readings: the first 36 questions store them all.
	const warm = 36
	ctx := context.Background()
	for i := 0; i < warm; i++ {
		if _, err := e.AskShedCtx(ctx, question(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	qs := make([]string, b.N)
	for i := range qs {
		qs[i] = question(warm + i)
	}
	answered, _ := e.AnswerCacheStats()
	bound, _ := e.ReadingCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for _, q := range qs {
		if _, err := e.AskShedCtx(ctx, q, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h, _ := e.AnswerCacheStats(); h != answered {
		b.Fatalf("%d answer-cache hits, want every ask a miss", h-answered)
	}
	if h, _ := e.ReadingCacheStats(); h-bound != uint64(b.N) {
		b.Fatalf("%d reading-cache hits, want %d", h-bound, b.N)
	}
}

func BenchmarkAskAggregate(b *testing.B) {
	e := NewEngine(dataset.University(1), uncachedOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ask("average salary of instructors per department"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentAsks verifies that a built engine is safe for parallel
// read-only querying (run under -race in CI).
func TestConcurrentAsks(t *testing.T) {
	e := uniEngine(t)
	questions := []string{
		"students with gpa over 3.5",
		"how many instructors are in Physics",
		"avrage salary of instructors", // typo: exercises Correct concurrently
		"which department has the most students",
		"top 3 instructors by salary",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(questions)*8)
	for i := 0; i < 8; i++ {
		for _, q := range questions {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				if _, err := e.Ask(q); err != nil {
					errs <- fmt.Errorf("%q: %w", q, err)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
