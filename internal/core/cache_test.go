package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"sync"
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
	id := int64(e.DB.Table("students").Snap().Len() + 1)
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
		next := int64(e.DB.Table("students").Snap().Len() + 1)
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
// pin a huge result set behind a single cache slot. Small results still
// cache normally under the same configuration.
func TestAnswerCacheEntrySizeCap(t *testing.T) {
	e := NewEngine(dataset.University(1), DefaultOptions())
	const maxRows = 3 // list queries return far more students
	e.maxRows = maxRows

	big := "students with gpa over 3.5"
	first, err := e.Ask(big)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(first.Result.Rows); n <= maxRows {
		t.Fatalf("test premise broken: %q returned only %d rows", big, n)
	}
	again, err := e.Ask(big)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Errorf("oversized result (%d rows > cap %d) was cached",
			len(first.Result.Rows), maxRows)
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
	fat := &Answer{Result: &exec.Result{Cols: []string{"name"}, Rows: []store.Row{
		{store.Text(strings.Repeat("x", 256))},
	}}}
	if cacheable(fat, defaultCacheMaxRows, 64) {
		t.Error("an answer over the byte cap is cacheable")
	}
	lean := &Answer{Result: &exec.Result{Cols: []string{"n"}, Rows: []store.Row{{store.Int(1)}}}}
	if !cacheable(lean, defaultCacheMaxRows, 64) {
		t.Error("an answer under the byte cap is not cacheable")
	}
}

// TestOversizedAnswerIsNotCopied: an answer over the entry cap costs
// nothing for the cache it never enters. The same ask allocates no
// more on an engine whose answer cache is on, with a cap the result
// exceeds, than on one whose cache is off: the cap is checked before
// the answer's rows are cloned for an entry, not after. A clone costs
// an allocation a row; the slack of half of that absorbs the race
// detector, which drops pooled scratch at random.
func TestOversizedAnswerIsNotCopied(t *testing.T) {
	const q = "students with gpa over 3.5"
	opts := DefaultOptions()
	opts.Parallelism = 1
	db := dataset.University(1)
	capped := NewEngine(db, opts)
	capped.maxRows = 3
	opts.AnswerCacheSize = 0
	uncached := NewEngine(db, opts)
	rows := 0
	allocs := func(e *Engine) float64 {
		return testing.AllocsPerRun(20, func() {
			ans, err := e.AskShedCtx(context.Background(), q, 0)
			if err != nil || ans.Cached {
				t.Fatalf("ask %q: cached %v, err %v", q, ans != nil && ans.Cached, err)
			}
			rows = len(ans.Result.Rows)
		})
	}
	off := allocs(uncached)
	on := allocs(capped)
	if rows <= capped.maxRows {
		t.Fatalf("test premise broken: %q returned only %d rows", q, rows)
	}
	if on >= off+float64(rows)/2 {
		t.Errorf("a %d-row answer over the cap costs %.0f allocations with the answer cache on, %.0f with it off",
			rows, on, off)
	}
}

// TestAnswerCacheByteCapFollowsValueSize: the byte estimate charges a
// cell what a cell occupies, store.ValueSize, not a figure copied from
// an older layout — a result one byte under the byte cap by that
// estimate is cached, one byte over is not.
func TestAnswerCacheByteCapFollowsValueSize(t *testing.T) {
	const rows, cols, text = 64, 3, 10
	estimate := rows * (cols*store.ValueSize + text)
	res := &exec.Result{Cols: []string{"id", "score", "name"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, store.Row{
			store.Int(int64(i)), store.Float(0.5), store.Text(strings.Repeat("x", text))})
	}
	for _, c := range []struct {
		maxBytes int
		cached   bool
	}{
		{estimate + 1, true},
		{estimate, true},
		{estimate - 1, false},
	} {
		if got := cacheable(&Answer{Result: res}, defaultCacheMaxRows, c.maxBytes); got != c.cached {
			t.Errorf("estimate %d B against a byte cap of %d: cached = %v, want %v",
				estimate, c.maxBytes, got, c.cached)
		}
	}
}

// TestCacheEvictionIsBounded pins the one cache's bound on a full
// 1,024-entry instance. A store reads no table version however many
// entries the hand passes (the answer cache once checked entries'
// versions on every store into a full cache, once per entry when none
// was stale); an entry hit between stores survives a full cycle of
// fresh stores; and a stale entry, which nothing can hit, goes before
// live entries that are hit.
func TestCacheEvictionIsBounded(t *testing.T) {
	const size = 1024
	versions := map[string]uint64{}
	calls := 0
	version := func(table string) uint64 {
		calls++
		return versions[table]
	}
	key := func(i int) string { return "q" + strconv.Itoa(i) }
	fill := func() *versioned[int] {
		c := newVersioned[int](size)
		for i := 0; i < size; i++ {
			c.store(key(i), []tableDep{{Table: key(i)}}, i) // each entry reads a table of its own
		}
		return c
	}
	hitAll := func(c *versioned[int], except int) {
		for i := 0; i < size; i++ {
			if i != except {
				if _, ok := c.lookup([]byte(key(i)), version); !ok {
					t.Fatalf("entry %d missing from a full cache", i)
				}
			}
		}
	}

	// Every entry hit since the hand last passed is the longest sweep a
	// store makes; it and a lookup of what it stored read one version,
	// the lookup's.
	c := fill()
	hitAll(c, -1)
	calls = 0
	c.store("new", []tableDep{{Table: "t"}}, -1)
	if v, ok := c.lookup([]byte("new"), version); !ok || v != -1 {
		t.Fatalf("the entry just stored: %v, %v", v, ok)
	}
	if calls != 1 {
		t.Errorf("a store into a full cache and one lookup read %d table versions, want 1", calls)
	}

	c = fill()
	hot := []byte(key(7))
	for i := 0; i < 2*size; i++ {
		c.store("fresh"+strconv.Itoa(i), nil, size+i)
		if _, ok := c.lookup(hot, version); !ok {
			t.Fatalf("an entry hit between stores was evicted by fresh store %d", i+1)
		}
	}
	if len(c.index) != size || len(c.ring) != size {
		t.Errorf("cache holds %d keys in %d slots, want %d", len(c.index), len(c.ring), size)
	}

	c = fill()
	const stale = 500
	versions[key(stale)]++ // a write to the one table entry 500 read
	hitAll(c, stale)
	c.store("new", nil, -1)
	if _, ok := c.index[key(stale)]; ok {
		t.Error("a store into a full cache kept the stale entry")
	}
	hitAll(c, stale)
}

// TestCacheConcurrentUse: goroutines storing and looking up keys on one
// small instance while table versions move never read another key's
// value or one stored at a version its table has since left, and the
// cache ends within its bound with its index and ring in agreement.
func TestCacheConcurrentUse(t *testing.T) {
	const size, keys, workers, rounds = 16, 64, 4, 3000
	var mu sync.Mutex
	versions := map[string]uint64{}
	version := func(table string) uint64 {
		mu.Lock()
		defer mu.Unlock()
		return versions[table]
	}
	type val struct {
		key     string
		version uint64
	}
	c := newVersioned[val](size)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := strconv.Itoa((w*31 + r*7) % keys)
				table := "t" + k[len(k)-1:]
				if r%97 == 0 {
					mu.Lock()
					versions[table]++
					mu.Unlock()
				}
				before := version(table)
				if v, ok := c.lookup([]byte(k), version); ok {
					if v.key != k || v.version < before {
						t.Errorf("lookup of %s at version %d returned %+v", k, before, v)
					}
					continue
				}
				at := version(table)
				c.store(k, []tableDep{{Table: table, Version: at}}, val{k, at})
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.stats()
	if hits+misses != workers*rounds {
		t.Errorf("%d hits + %d misses, want %d lookups", hits, misses, workers*rounds)
	}
	if len(c.index) > size || len(c.ring) > size {
		t.Errorf("cache holds %d keys in %d slots, bound %d", len(c.index), len(c.ring), size)
	}
	for k, i := range c.index {
		if s := c.ring[i]; !s.live || s.key != k {
			t.Errorf("index maps %s to slot %d holding %+v", k, i, s)
		}
	}
}

// TestOneCache pins that the engine caches through one type: core
// declares one type with lookup and store methods, Engine.cache,
// Engine.plans and Parser.readings are all instances of it, and
// plan.Template keeps no validity of its own — no SameEpoch, Bind or
// Validate and no table versions — so the entry's deps are the one
// record of what a cached value read.
func TestOneCache(t *testing.T) {
	nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	parse := func(dir, pkg string) []*ast.File {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nonTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, f := range pkgs[pkg].Files {
			files = append(files, f)
		}
		return files
	}
	// typeName strips pointers and type arguments: *versioned[V] is versioned.
	var typeName func(ast.Expr) string
	typeName = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.StarExpr:
			return typeName(e.X)
		case *ast.IndexExpr:
			return typeName(e.X)
		case *ast.IndexListExpr:
			return typeName(e.X)
		case *ast.Ident:
			return e.Name
		}
		return ""
	}
	methods := func(files []*ast.File) map[string]map[string]bool {
		m := map[string]map[string]bool{}
		for _, f := range files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					recv := typeName(fn.Recv.List[0].Type)
					if m[recv] == nil {
						m[recv] = map[string]bool{}
					}
					m[recv][fn.Name.Name] = true
				}
			}
		}
		return m
	}
	fields := func(files []*ast.File, typ string) map[string]string {
		out := map[string]string{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typ {
					return true
				}
				for _, fl := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range fl.Names {
						out[name.Name] = typeName(fl.Type)
					}
				}
				return false
			})
		}
		return out
	}

	core := parse(".", "core")
	var caches []string
	for typ, m := range methods(core) {
		if m["lookup"] && m["store"] {
			caches = append(caches, typ)
		}
	}
	if len(caches) != 1 {
		t.Fatalf("core declares cache types %v, want one", caches)
	}
	for _, f := range []struct{ typ, field string }{
		{"Engine", "cache"}, {"Engine", "plans"}, {"Parser", "readings"},
	} {
		if got := fields(core, f.typ)[f.field]; got != caches[0] {
			t.Errorf("%s.%s is a %s, want a %s", f.typ, f.field, got, caches[0])
		}
	}

	plan := parse("../plan", "plan")
	for name := range methods(plan)["Template"] {
		if name == "SameEpoch" || name == "Bind" || name == "Validate" {
			t.Errorf("plan.Template.%s is back", name)
		}
	}
	for name := range fields(plan, "Template") {
		if name == "tables" || name == "versions" || name == "ParamKinds" {
			t.Errorf("plan.Template.%s is back", name)
		}
	}
}
