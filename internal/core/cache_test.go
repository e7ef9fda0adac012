package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"

	"repro/internal/sql"
	"repro/internal/store"
)

// TestAnswerCacheEvictionGranularity: invalidation is per table. A
// cached answer survives writes to tables its query never reads and
// dies the moment one of its dependency tables changes — the write-
// locality property that keeps a shared engine's cache hot while
// loaders stream into unrelated tables.
func TestAnswerCacheEvictionGranularity(t *testing.T) {
	e := uniEngine(t)
	q := "students with gpa over 3.5"
	first, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	deps := map[string]bool{}
	for _, name := range sql.Tables(first.SQL) {
		deps[name] = true
	}
	if !deps["students"] {
		t.Fatalf("test premise broken: %q does not read students (deps %v)", q, deps)
	}
	if deps["enrollments"] {
		t.Fatalf("test premise broken: %q reads enrollments", q)
	}

	// A write to a table outside the dependency set leaves the entry hot.
	if err := e.DB.Insert("enrollments", store.Int(1), store.Int(1), store.Text("A")); err != nil {
		t.Fatal(err)
	}
	hot, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.Cached {
		t.Error("write to an unrelated table evicted the cached answer")
	}

	// A write to a dependency table evicts exactly this entry.
	id := int64(e.DB.Table("students").Len() + 1)
	if err := e.DB.Insert("students",
		store.Int(id), store.Text("Grace Hopper"), store.Int(1),
		store.Int(4), store.Float(3.97)); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Error("write to a dependency table did not evict the cached answer")
	}
	if len(fresh.Result.Rows) != len(first.Result.Rows)+1 {
		t.Errorf("fresh ask missed the inserted row: %d rows, want %d",
			len(fresh.Result.Rows), len(first.Result.Rows)+1)
	}
}

// TestAnswerCacheDepsCoverSubqueries: the dependency fingerprint walks
// into subqueries, so a cached answer is also evicted by writes that
// only affect a nested SELECT's table.
func TestAnswerCacheDepsCoverSubqueries(t *testing.T) {
	stmt := sql.MustParse(
		"SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments WHERE grade = 'A')")
	got := sql.Tables(stmt)
	want := []string{"enrollments", "students"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("sql.Tables = %v, want %v", got, want)
	}
}

// TestConversationsKeepAnsweringMidLoad: dialogue turns pin their own
// snapshots, so a conversation keeps producing consistent answers
// while a bulk loader streams rows into the tables it is asking
// about. Batches insert students four at a time with gpa 3.9, so on
// any single snapshot the count of matching students moves in steps —
// never between them.
func TestConversationsKeepAnsweringMidLoad(t *testing.T) {
	e := uniEngine(t)
	base, err := e.Ask("how many students with gpa over 3.8")
	if err != nil {
		t.Fatal(err)
	}
	baseN := answerCount(t, base)

	const batches, per = 12, 4
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := int64(e.DB.Table("students").Len() + 1)
		for b := 0; b < batches; b++ {
			rows := make([]store.Row, per)
			for i := range rows {
				rows[i] = store.Row{store.Int(next), store.Text("Load Test"),
					store.Int(1), store.Int(4), store.Float(3.9)}
				next++
			}
			if err := e.DB.BulkInsert("students", rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	conv := e.NewConversation()
	for i := 0; ; i++ {
		ans, _, err := conv.Ask("how many students with gpa over 3.8")
		if err != nil {
			t.Fatalf("turn %d failed mid-load: %v", i, err)
		}
		if n := answerCount(t, ans); (n-baseN)%per != 0 {
			t.Fatalf("turn %d saw a torn batch: %d matching students (base %d)", i, n, baseN)
		}
		select {
		case <-done:
			ans, _, err := conv.Ask("how many students with gpa over 3.8")
			if err != nil {
				t.Fatal(err)
			}
			if n := answerCount(t, ans); n != baseN+batches*per {
				t.Fatalf("final turn saw %d matching students, want %d", n, baseN+batches*per)
			}
			return
		default:
		}
	}
}

func answerCount(t *testing.T, ans *Answer) int {
	t.Helper()
	if ans.Result == nil || len(ans.Result.Rows) != 1 {
		t.Fatalf("expected a single count row, got %+v", ans.Result)
	}
	f, ok := ans.Result.Rows[0][0].AsFloat()
	if !ok {
		t.Fatalf("count cell is not numeric: %v", ans.Result.Rows[0][0])
	}
	return int(f)
}

// TestAnswerCacheEntrySizeCap: a result past the per-entry row or byte
// cap is served but never cached — one pathological question must not
// pin a huge result set behind a single LRU slot. Small results still
// cache normally under the same configuration.
func TestAnswerCacheEntrySizeCap(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheMaxRows = 3 // list queries return far more students
	e := NewEngine(dataset.University(1), opts)

	big := "students with gpa over 3.5"
	first, err := e.Ask(big)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(first.Result.Rows); n <= opts.AnswerCacheMaxRows {
		t.Fatalf("test premise broken: %q returned only %d rows", big, n)
	}
	again, err := e.Ask(big)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Errorf("oversized result (%d rows > cap %d) was cached",
			len(first.Result.Rows), opts.AnswerCacheMaxRows)
	}

	small := "how many students with gpa over 3.5"
	if _, err := e.Ask(small); err != nil {
		t.Fatal(err)
	}
	hit, err := e.Ask(small)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("single-row result under the cap was not cached")
	}

	// The byte cap rejects few-but-fat rows independently of the row cap.
	c := newAnswerCache(8, 0, 64)
	fat := &Answer{Result: &exec.Result{Cols: []string{"name"}, Rows: []store.Row{
		{store.Text(strings.Repeat("x", 256))},
	}}}
	c.store("fat", nil, fat, func(string) uint64 { return 0 })
	if c.lookup("fat", func(string) uint64 { return 0 }) != nil {
		t.Error("entry over the byte cap was cached")
	}
	lean := &Answer{Result: &exec.Result{Cols: []string{"n"}, Rows: []store.Row{{store.Int(1)}}}}
	c.store("lean", nil, lean, func(string) uint64 { return 0 })
	if c.lookup("lean", func(string) uint64 { return 0 }) == nil {
		t.Error("entry under the byte cap was not cached")
	}
}

// TestAnswerCacheByteCapFollowsValueSize: the byte estimate charges a
// cell what a cell occupies, store.ValueSize, not a figure copied from
// an older layout — a result one byte under AnswerCacheMaxBytes by that
// estimate is cached, one byte over is not.
func TestAnswerCacheByteCapFollowsValueSize(t *testing.T) {
	const rows, cols, text = 64, 3, 10
	estimate := rows * (cols*store.ValueSize + text)
	res := &exec.Result{Cols: []string{"id", "score", "name"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, store.Row{
			store.Int(int64(i)), store.Float(0.5), store.Text(strings.Repeat("x", text))})
	}
	current := func(string) uint64 { return 0 }
	for _, c := range []struct {
		maxBytes int
		cached   bool
	}{
		{estimate + 1, true},
		{estimate, true},
		{estimate - 1, false},
	} {
		cache := newAnswerCache(8, 0, c.maxBytes)
		cache.store("q", nil, &Answer{Result: res}, current)
		if got := cache.lookup("q", current) != nil; got != c.cached {
			t.Errorf("estimate %d B against AnswerCacheMaxBytes %d: cached = %v, want %v",
				estimate, c.maxBytes, got, c.cached)
		}
	}
}
