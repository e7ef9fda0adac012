package core

import (
	"strconv"
	"sync"

	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/strutil"
)

// tableDep records one table a cache entry depends on and the version
// it was read at.
type tableDep struct {
	Table   string
	Version uint64
}

// snapshotDeps builds the dependency fingerprint of an entry computed
// on sn: the tables its SQL reads, each at the version sn pins.
func snapshotDeps(tables []string, sn *store.Snapshot) []tableDep {
	deps := make([]tableDep, len(tables))
	for i, name := range tables {
		deps[i] = tableDep{Table: name, Version: sn.TableVersion(name)}
	}
	return deps
}

// versioned is the engine's one cache: a bounded table of values, each
// valid while every table it read is still at the version it read.
// Engine.cache (answers, keyed by corrected tokens) and Engine.plans
// (compiled plan templates, keyed by query shape) are two instances.
//
// The validity rule is checked at lookup, against whatever version
// function the caller's data view answers to, and a stale entry is
// evicted on sight. Versions only grow, so a stale entry can never be
// valid again. Nothing is ever flushed wholesale: a write to one table
// leaves every entry over other tables hot.
//
// The bound is a CLOCK ring. A hit sets its entry's reference bit; a
// store into a full cache advances the hand, clearing set bits, to the
// first entry not hit since the hand last passed it, and replaces that
// one. A stale entry is never hit again, so the hand takes it by its
// second visit at the latest — before any entry still in use — and a
// store reads no table version at all.
//
// One mutex guards everything: one engine serves every request
// handler.
type versioned[V any] struct {
	mu    sync.Mutex
	size  int
	index map[string]int
	ring  []slot[V]
	hand  int

	// hits / misses count lookups: a stale entry evicted on sight is a
	// miss — the ask pays the full work either way.
	hits, misses uint64
}

type slot[V any] struct {
	key  string
	val  V
	deps []tableDep
	live bool // false once evicted on sight
	ref  bool // hit since the hand last passed
}

func newVersioned[V any](size int) *versioned[V] {
	return &versioned[V]{size: size, index: make(map[string]int)}
}

// lookup returns the value cached for key when every table it depends
// on is still at the version it was stored with, per version. Every
// call counts as a hit or a miss. The key is bytes so that a probe
// never builds a string.
func (c *versioned[V]) lookup(key []byte, version func(table string) uint64) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[string(key)]
	if !ok {
		c.misses++
		return v, false
	}
	s := &c.ring[i]
	for _, d := range s.deps {
		if version(d.Table) != d.Version {
			delete(c.index, s.key)
			c.ring[i] = slot[V]{}
			c.misses++
			return v, false
		}
	}
	s.ref = true
	c.hits++
	return s.val, true
}

// store records v under key with its dependency fingerprint, replacing
// any entry the key already has. Entries racing with writers are
// harmless: if the data moved between pin and store, deps are already
// stale and the next lookup evicts the entry instead of serving it.
func (c *versioned[V]) store(key string, deps []tableDep, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	switch {
	case ok:
	case len(c.ring) < c.size:
		i = len(c.ring)
		c.ring = append(c.ring, slot[V]{})
	default:
		i = c.victim()
		if s := &c.ring[i]; s.live {
			delete(c.index, s.key)
		}
	}
	c.ring[i] = slot[V]{key: key, val: v, deps: deps, live: true}
	c.index[key] = i
}

// victim advances the hand past every slot hit since its last visit,
// clearing their bits, and returns the first slot that was not.
func (c *versioned[V]) victim() int {
	for {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.ring)
		if !c.ring[i].ref {
			return i
		}
		c.ring[i].ref = false
	}
}

// stats returns the cumulative lookup hit/miss counters.
func (c *versioned[V]) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cacheEntry is one memoized answer and the slot a serving layer
// renders that answer into once. The rendering lives and dies with the
// entry: a stale or evicted entry takes it along, a re-stored key
// starts empty.
type cacheEntry struct {
	ans      *Answer
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

// Per-entry size caps of the answer cache: one entry occupies one slot
// regardless of its payload, so without a cap a single huge result set
// pins an arbitrary amount of memory behind the cache bound. Oversized
// answers are still served — they are just never cached.
const (
	defaultCacheMaxRows  = 4096
	defaultCacheMaxBytes = 1 << 20
)

// cacheable reports whether an answer's result fits the per-entry
// caps. Engine.ask asks it of the answer it built, before storing
// anything in the cache. Byte size is an estimate: store.ValueSize a
// cell plus text payload — what the entry, sharing the result, keeps
// alive. A rendering, once a hit builds one, is the same payload
// spelled out and is bounded by the same caps.
func cacheable(ans *Answer, maxRows, maxBytes int) bool {
	if ans.Result == nil {
		return true
	}
	if len(ans.Result.Rows) > maxRows {
		return false
	}
	bytes := 0
	for _, r := range ans.Result.Rows {
		bytes += len(r) * store.ValueSize
		for _, v := range r {
			if v.Kind() == store.KindText {
				bytes += len(v.Str())
			}
		}
		if bytes > maxBytes {
			return false
		}
	}
	return true
}

// cacheableAnswer is the answer as it enters the cache: the struct is
// copied and its Result shared, not cloned. The rows are read-only once
// the executor has returned them, the AskShedCtx caller of the miss
// only reads them, and the entry points that hand a caller rows to
// keep and mutate clone them (owned). Interpretation structures (Query,
// SQL, Plan, Ranked) are shared likewise: they are treated as immutable
// once the answer is built. The per-ask serving flags are cleared:
// whether this ask ran degraded or queued is a fact about the load at
// the moment it ran, not about the answer, and must not leak into later
// asks served from the cache.
func cacheableAnswer(ans *Answer) *Answer {
	cp := *ans
	cp.Degraded = false
	cp.Timings.Queue = 0
	return &cp
}

// owned is what the entry points that promise their caller an answer
// it may mutate (Ask, AskCtx, Conversation.Ask and AskCtx) hand out:
// the result cloned, hit or miss, and the entry's rendering slot, which
// describes rows the caller is now free to change, dropped. A hit's
// rows are the cache entry's; a miss's rows are shared with the entry
// it stored, and its Cols is the cached plan's slice (see exec's
// executor.run), shared with every later ask of the plan shape. The
// AskShedCtx path serve drives, which only encodes, pays for none of
// it.
func owned(ans *Answer) *Answer {
	if ans != nil {
		ans.Result = cloneResult(ans.Result)
		ans.Rendered = nil
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

// appendCacheKey appends the answer-cache key of corrected tokens to
// dst: token kind plus surface text, so questions differing only in
// whitespace — or in typos the corrector repairs to the same tokens —
// share an entry, while quoted values keep their case.
func appendCacheKey(dst []byte, toks []strutil.Token) []byte {
	for i, t := range toks {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = strconv.AppendInt(dst, int64(t.Kind), 10)
		dst = append(dst, ':')
		dst = append(dst, t.Text...)
	}
	return dst
}
