package core

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/strutil"
)

// tableDep records one table an answer depends on and the version it
// was read at — the validity fingerprint of a cache entry.
type tableDep struct {
	Table   string
	Version uint64
}

// cacheEntry is one memoized answer plus the exact per-table versions
// it was computed against, and the slot a serving layer renders that
// answer into once. The rendering lives and dies with the entry: a
// stale or evicted entry takes it along, a re-stored key starts empty.
type cacheEntry struct {
	ans      *Answer
	deps     []tableDep
	rendered Rendering
}

// Rendering is the write-once slot of one answer-cache entry for the
// bytes a caller encodes the entry's immutable part into — for
// internal/serve, the paraphrase-to-rows middle of its JSON response.
// core stores what the caller's function built and knows nothing of
// the format. Answers reach it through a pointer (Answer.Rendered), so
// copying an Answer never copies the Once.
type Rendering struct {
	once sync.Once
	b    []byte
}

// Bytes returns the entry's rendering, calling build to produce it if
// no caller has yet; concurrent first callers wait for the one build.
// build must depend only on the answer's entry-owned fields (Result,
// SQL, Paraphrase, Response), and the returned bytes are read-only.
func (r *Rendering) Bytes(build func() []byte) []byte {
	r.once.Do(func() { r.b = build() })
	return r.b
}

// hit returns a per-request copy of the entry's Answer struct. Its
// Result (and everything else behind a pointer) is still the entry's
// own and must not be written; Rendered points at the entry's slot.
func (e *cacheEntry) hit() *Answer {
	cp := *e.ans
	cp.Rendered = &e.rendered
	return &cp
}

// answerCache memoizes complete answers by their corrected-token key
// so repeated hot questions skip the whole pipeline — the serving-path
// counterpart of the per-query plan and subquery caches. Invalidation
// is per table, not wholesale: each entry carries the versions of
// exactly the tables its query read (including subquery tables), and
// stays valid while those tables are unchanged. A write to one table
// therefore leaves every answer over other tables hot — the property
// that keeps the cache useful on a live, continuously-loaded store.
// The cache is safe for concurrent lookups and stores (high-QPS
// serving shares one engine).
// Per-entry size caps: one entry occupies one LRU slot regardless of
// its payload, so without a cap a single huge result set pins an
// arbitrary amount of memory behind the cache bound. Oversized answers
// are still served — they are just never cached.
const (
	defaultCacheMaxRows  = 4096
	defaultCacheMaxBytes = 1 << 20
)

type answerCache struct {
	mu       sync.Mutex
	size     int
	maxRows  int // per-entry result row cap; <= 0 means uncapped
	maxBytes int // per-entry approximate result byte cap; <= 0 means uncapped
	entries  map[string]*cacheEntry

	// hits / misses count lookups under mu: a stale entry evicted on
	// sight is a miss — the ask pays the full pipeline either way.
	hits, misses uint64
}

func newAnswerCache(size, maxRows, maxBytes int) *answerCache {
	return &answerCache{size: size, maxRows: maxRows, maxBytes: maxBytes,
		entries: make(map[string]*cacheEntry)}
}

// cacheable reports whether an answer's result fits the per-entry
// caps. Byte size is an estimate: store.ValueSize a cell plus text
// payload — what the copy in cacheableAnswer will actually retain. A
// rendering, once a hit builds one, is the same payload spelled out
// and is bounded by the same caps.
func (c *answerCache) cacheable(ans *Answer) bool {
	if ans.Result == nil {
		return true
	}
	rows := len(ans.Result.Rows)
	if c.maxRows > 0 && rows > c.maxRows {
		return false
	}
	if c.maxBytes <= 0 {
		return true
	}
	bytes := 0
	for _, r := range ans.Result.Rows {
		bytes += len(r) * store.ValueSize
		for _, v := range r {
			if v.Kind() == store.KindText {
				bytes += len(v.Str())
			}
		}
		if bytes > c.maxBytes {
			return false
		}
	}
	return true
}

// stale reports whether any dependency table has moved past the
// version the entry was computed at. A stale entry can never become
// valid again (versions are monotonic).
func (e *cacheEntry) stale(current func(table string) uint64) bool {
	for _, d := range e.deps {
		if current(d.Table) != d.Version {
			return true
		}
	}
	return false
}

// lookup returns the entry cached for key if every table it depends
// on is still at the version the answer was computed at, per current.
// A stale entry is evicted on sight.
func (c *answerCache) lookup(key string, current func(table string) uint64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		c.misses++
		return nil
	}
	if e.stale(current) {
		delete(c.entries, key)
		c.misses++
		return nil
	}
	c.hits++
	return e
}

// stats returns the cumulative lookup hit/miss counters.
func (c *answerCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// store records a successful answer with its dependency fingerprint.
// Entries racing with writers are harmless: if the data moved between
// pin and store, the recorded versions are already stale and the next
// lookup evicts the entry instead of serving it. When full, an
// already-stale entry is evicted first (stale entries otherwise die
// only when their own question is re-asked, and must not crowd out
// live ones), falling back to an arbitrary victim — hot questions
// re-enter on their next ask, and the bound is what matters.
func (c *answerCache) store(key string, deps []tableDep, ans *Answer, current func(table string) uint64) {
	if !c.cacheable(ans) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= c.size {
		victim := ""
		for k, e := range c.entries {
			if victim == "" {
				victim = k
			}
			if e.stale(current) {
				victim = k
				break
			}
		}
		delete(c.entries, victim)
	}
	c.entries[key] = &cacheEntry{ans: ans, deps: deps}
}

// snapshotDeps builds the dependency fingerprint of an answer: the
// tables its SQL reads, each at the version pinned by the snapshot the
// answer was executed on.
func snapshotDeps(tables []string, sn *store.Snapshot) []tableDep {
	deps := make([]tableDep, len(tables))
	for i, name := range tables {
		deps[i] = tableDep{Table: name, Version: sn.TableVersion(name)}
	}
	return deps
}

// cacheableAnswer is the defensive copy an answer enters the cache as:
// the struct is copied and the result rows are cloned, so the caller
// of the miss, who owns the original, can sort or rewrite its rows
// without poisoning the entry. Interpretation structures (Query, SQL,
// Plan, Ranked) stay shared: they are treated as immutable once the
// answer is built. The per-ask serving flags are cleared: whether this
// ask ran degraded or queued is a fact about the load at the moment it
// ran, not about the answer, and must not leak into later asks served
// from the cache.
func cacheableAnswer(ans *Answer) *Answer {
	cp := *ans
	cp.Result = cloneResult(ans.Result)
	cp.Degraded = false
	cp.Timings.Queue = 0
	return &cp
}

// owned is the same defence in the other direction, applied by the
// entry points that promise their caller an answer it may mutate
// (Ask, AskCtx): a hit's rows are cloned out of the entry and the
// entry's rendering slot, which describes rows the caller is now free
// to change, is dropped. A miss's rows are the caller's own already,
// but its Cols is the cached plan's slice (see exec's executor.run),
// shared with every later ask of the plan shape — so that is cloned
// here, not in the executor, and the AskShedCtx path serve drives pays
// nothing for it.
func owned(ans *Answer) *Answer {
	switch {
	case ans == nil:
	case ans.Rendered != nil:
		ans.Result = cloneResult(ans.Result)
		ans.Rendered = nil
	case ans.Result != nil:
		ans.Result.Cols = slices.Clone(ans.Result.Cols)
	}
	return ans
}

func cloneResult(res *exec.Result) *exec.Result {
	if res == nil {
		return nil
	}
	cp := &exec.Result{
		Cols: append([]string(nil), res.Cols...),
		Rows: make([]store.Row, len(res.Rows)),
	}
	for i, r := range res.Rows {
		cp.Rows[i] = append(store.Row(nil), r...)
	}
	return cp
}

// cacheKey normalizes corrected tokens into the answer-cache key:
// token kind plus surface text, so questions differing only in
// whitespace — or in typos the corrector repairs to the same tokens —
// share an entry, while quoted values keep their case.
func cacheKey(toks []strutil.Token) string {
	var b []byte
	for i, t := range toks {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = strconv.AppendInt(b, int64(t.Kind), 10)
		b = append(b, ':')
		b = append(b, t.Text...)
	}
	return string(b)
}
