// Package core assembles the complete natural language interface — the
// paper's contribution — from its substrates: spelling correction and
// annotation (semindex), semantic-grammar parsing (grammar),
// interpretation ranking (interp), SQL generation (iql), execution
// (exec) and English echo/response generation (nlg). The public root
// package nli re-exports this engine.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/grammar"
	"repro/internal/interp"
	"repro/internal/iql"
	"repro/internal/nlg"
	"repro/internal/plan"
	"repro/internal/semindex"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/strutil"
)

// Options configures an engine; every knowledge source and rule group
// is switchable to support the ablation experiments.
type Options struct {
	Index        semindex.Options
	Grammar      grammar.Options
	Weights      interp.Weights
	SpellMaxDist int // maximum edit distance for correction; 0 disables

	// Parallelism is the worker degree query execution runs at: plans
	// get an exchange operator driving that many morsel workers.
	// 0 resolves to runtime.GOMAXPROCS(0); 1 reproduces the serial
	// plans exactly (the ablation setting).
	Parallelism int

	// AnswerCacheSize bounds the engine answer cache (entries), keyed
	// by corrected tokens; an entry is stale once any table it read has
	// a new version (store.DB.TableVersion).
	// 0 disables caching — set that when measuring pipeline latency.
	AnswerCacheSize int

	// PlanCacheSize bounds both shape caches (entries each). The
	// plan-template cache is keyed by query shape (parameterized SQL +
	// constant kinds) and, like the answer cache, stale once any table
	// it read has a new version in the ask's snapshot: questions
	// repeating a shape with different constants skip planning and pay
	// only a bind. The reading cache is keyed by annotated question
	// shape, numbers lifted out, and never stale: questions repeating
	// one skip the parse and pay a clone and a bind of the cached
	// candidates. 0 disables both — every ask then parses and plans from
	// scratch, as the reference engines of TestPlanCacheAcrossConstants
	// and TestReadingCacheMatchesParse do; the question benchmark's
	// core.plan_cache_hit_share on ask_fresh records how often the plan
	// cache serves.
	PlanCacheSize int
}

// DefaultOptions enables everything with spelling correction at
// distance 1 (the conservative era setting; T5 sweeps this),
// hardware-width parallel execution and a bounded answer cache.
func DefaultOptions() Options {
	return Options{
		Index:           semindex.DefaultOptions(),
		Grammar:         grammar.DefaultOptions(),
		Weights:         interp.DefaultWeights(),
		SpellMaxDist:    1,
		Parallelism:     runtime.GOMAXPROCS(0),
		AnswerCacheSize: 1024,
		PlanCacheSize:   256,
	}
}

// Timings is the per-stage latency breakdown of one question.
type Timings struct {
	Queue     time.Duration // admission-control wait before the pipeline ran (set by the serving layer)
	Correct   time.Duration // spelling correction
	Annotate  time.Duration // semantic-index span annotation
	Parse     time.Duration // semantic-grammar parsing: on a reading-cache hit the lookup and bind, on a miss that learns its shape the sentinel parse too
	Rank      time.Duration // interpretation ranking
	Generate  time.Duration // IQL -> SQL translation
	Plan      time.Duration // query planning and optimization (template compiles included)
	Bind      time.Duration // plan-cache hit: normalize + shape lookup + bind, no planning
	Execute   time.Duration // plan execution
	Verbalize time.Duration // English paraphrase of the interpretation and rendering of the result
	Total     time.Duration // the whole ask, the answer-cache store included
}

// Answer is the full outcome of one question.
type Answer struct {
	Question    string
	Corrections []semindex.Correction
	Ranked      []interp.Scored // all surviving interpretations
	Query       *iql.Query      // the chosen interpretation
	SQL         *sql.SelectStmt
	Plan        *plan.Plan // the optimized execution plan (see Plan.Explain)
	Result      *exec.Result
	Paraphrase  string // English echo of the interpretation
	Response    string // English rendering of the result
	Cached      bool   // served from the answer cache, pipeline skipped
	PlanCached  bool   // plan served from the template cache: bound, not planned
	Degraded    bool   // executed load-shed to a lower degree than the engine's Parallelism

	// ReadingCached reports that the candidates Ranked was ranked from
	// were bound from the reading cache: the question was not parsed.
	ReadingCached bool

	// Rendered is non-nil exactly when Ask served this answer from the
	// answer cache: Result is then the cache entry's own rows, shared
	// with every other hit and read-only, and Rendered is the entry's
	// slot for whatever encoding of them the caller memoizes (see
	// Rendering). A miss's Result is read-only too, the entry it stored
	// sharing it.
	Rendered *Rendering

	Timings Timings
}

// Ambiguity reports how contested the interpretation was.
func (a *Answer) Ambiguity() interp.Ambiguity { return interp.Measure(a.Ranked) }

// Engine is a natural language interface bound to one database. A
// built engine is safe for concurrent Ask calls — the serving setup is
// one engine shared by every request handler.
type Engine struct {
	DB    *store.DB
	Idx   *semindex.Index
	G     *Parser // the grammar, its complete-question parse behind the reading cache
	opts  Options
	cache *versioned[*cacheEntry]         // answers; nil when AnswerCacheSize is 0
	plans *versioned[*exec.PreparedQuery] // plan templates; nil when PlanCacheSize is 0

	// maxRows and maxBytes cap what one answer-cache entry may hold
	// (see cacheable).
	maxRows, maxBytes int

	// segC accumulates runtime scan counters across every ask the
	// engine serves: segments decoded vs skipped by zone maps. Atomic
	// fields — always addressed through the pointer receivers below,
	// never copied — surfaced by the serving layer's /api/stats.
	segC store.SegCounters
}

// NewEngine builds the semantic index and grammar for db.
func NewEngine(db *store.DB, opts Options) *Engine {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	idx := semindex.Build(db, opts.Index)
	e := &Engine{
		DB:       db,
		Idx:      idx,
		G:        &Parser{Grammar: grammar.New(idx, opts.Grammar)},
		opts:     opts,
		maxRows:  defaultCacheMaxRows,
		maxBytes: defaultCacheMaxBytes,
	}
	if opts.AnswerCacheSize > 0 {
		e.cache = newVersioned[*cacheEntry](opts.AnswerCacheSize)
	}
	if opts.PlanCacheSize > 0 {
		e.plans = newVersioned[*exec.PreparedQuery](opts.PlanCacheSize)
		e.G.readings = newVersioned[*reading](opts.PlanCacheSize)
	}
	return e
}

// PlanCacheStats returns the cumulative plan-template cache hit/miss
// counters (zeros when the cache is disabled).
func (e *Engine) PlanCacheStats() (hits, misses uint64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.stats()
}

// ReadingCacheStats returns the cumulative reading-cache counters:
// hits are complete-question reads served by binding cached candidates,
// misses those that parsed while the cache was on — a new shape, one
// not bindable, or numbers the cache cannot tell apart (zeros when the
// cache is disabled).
func (e *Engine) ReadingCacheStats() (hits, misses uint64) {
	return e.G.served.Load(), e.G.parsed.Load()
}

// AnswerCacheStats returns the cumulative answer-cache hit/miss
// counters (zeros when the cache is disabled).
func (e *Engine) AnswerCacheStats() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// SegmentStats returns the cumulative runtime segment counters across
// every ask served: segments decoded vs segments skipped by zone maps.
func (e *Engine) SegmentStats() (scanned, skipped int64) {
	return e.segC.Scanned.Load(), e.segC.Skipped.Load()
}

// Name identifies the full pipeline in benchmark reports.
func (e *Engine) Name() string { return "nli" }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// Translate maps a question to SQL without executing it — the
// interface the benchmark harness evaluates all systems through.
func (e *Engine) Translate(question string) (*sql.SelectStmt, error) {
	ans, err := e.Interpret(question)
	return ans.SQL, err
}

// Interpret runs the pipeline up to SQL generation without executing,
// exposing every ranked interpretation (used by the ambiguity
// experiment T3).
func (e *Engine) Interpret(question string) (*Answer, error) {
	toks, fixes, correct := e.correctTokens(question)
	ans := &Answer{Question: question, Corrections: fixes, Timings: Timings{Correct: correct}}
	_, err := e.interpret(ans, toks, nil)
	return ans, err
}

// correctTokens tokenizes the question and repairs spelling, returning
// the corrected tokens, the repairs, and the stage latency.
func (e *Engine) correctTokens(question string) ([]strutil.Token, []semindex.Correction, time.Duration) {
	toks := strutil.Tokenize(question)
	start := time.Now()
	var fixes []semindex.Correction
	if e.opts.SpellMaxDist > 0 {
		toks, fixes = e.Idx.Correct(toks, e.opts.SpellMaxDist)
	}
	return toks, fixes, time.Since(start)
}

// interpret is the linguistic half of the pipeline, corrected tokens to
// SQL: it fills ans.Ranked, Query and SQL and the stage Timings of
// whatever ran, error returns included.
//
// prev is the conversation context, nil for a single-shot question or a
// fresh conversation. A turn is always read as a complete question
// first, and that reading never consults prev — so a non-follow-up
// turn's interpretation is a pure function of its tokens, which is what
// lets the answer cache key on them alone. Only when the full reading
// ranks nothing is the turn read as a fragment refining prev ("students
// in Math" starts a new question, "only those in Math" narrows the
// current one), over the same Prepared; followUp reports that the
// fragment reading was the one chosen. The complete reading goes
// through the reading cache (Parser.parse); the fragment reading never
// does, its meaning being prev's as much as its tokens'.
func (e *Engine) interpret(ans *Answer, toks []strutil.Token, prev *iql.Query) (followUp bool, err error) {
	tm := &ans.Timings

	start := time.Now()
	prepared := e.G.Prepare(toks)
	tm.Annotate = time.Since(start)

	start = time.Now()
	cands, cached := e.G.parse(prepared)
	tm.Parse = time.Since(start)
	ans.ReadingCached = cached

	if len(cands) > 0 {
		start = time.Now()
		ans.Ranked = interp.Rank(cands, e.DB.Schema, e.opts.Weights)
		tm.Rank = time.Since(start)
	}
	if len(ans.Ranked) == 0 {
		if prev == nil {
			if len(cands) == 0 {
				return false, fmt.Errorf("core: %q is outside the grammar's coverage", ans.Question)
			}
			return false, fmt.Errorf("core: no interpretation of %q connects over the schema", ans.Question)
		}
		start = time.Now()
		cands = e.G.ParseUpdate(prepared, prev)
		tm.Parse += time.Since(start)

		start = time.Now()
		ans.Ranked = interp.Rank(cands, e.DB.Schema, e.opts.Weights)
		tm.Rank += time.Since(start)
		if len(ans.Ranked) == 0 {
			return false, fmt.Errorf("core: could not relate %q to the current context", ans.Question)
		}
		followUp = true
	}
	ans.Query = ans.Ranked[0].Query

	start = time.Now()
	stmt, err := iql.ToSQL(ans.Query, e.DB.Schema)
	tm.Generate = time.Since(start)
	if err != nil {
		return followUp, fmt.Errorf("core: generating SQL: %w", err)
	}
	ans.SQL = stmt
	return followUp, nil
}

// Ask answers a question end to end. Repeated questions whose
// corrected tokens match a cached entry — one whose dependency tables
// are all unchanged — skip the whole pipeline; writes to unrelated
// tables leave entries hot. A miss pins one store snapshot for
// planning and execution, so the answer is computed over a single
// consistent data version even while writers are active. Execution
// observes ctx cancellation at batch granularity and aborts with
// context.Cause(ctx) instead of finishing work nobody is waiting for.
//
// par caps the execution degree: 0 runs at the engine's configured
// Parallelism, 1 sheds the (cached, parallel) plan to serial execution
// — the serving layer's graceful-degradation path under load. Results
// are row-for-row identical at any degree; the answer reports Degraded
// when the cap actually lowered the degree.
//
// Nothing here copies the result. A cache hit copies only the Answer
// struct: its Result is the cache entry's own and must not be written
// (see Answer.Rendered). A miss's Result is the one the cache entry it
// stored shares, rows and all, and its Cols is the cached plan's own
// slice: read-only likewise. The rows of an answer are written once, by
// the executor, and what a hit costs does not grow with the size of its
// result.
func (e *Engine) Ask(ctx context.Context, question string, par int) (*Answer, error) {
	ans, _, err := e.ask(ctx, question, nil, par)
	return ans, err
}

// AskCtx is Ask at the engine's degree with the result cloned, the
// caller's to keep and mutate. It exists only because benchmark/ is
// frozen and its traced replay times the untraced side through this
// name (like exec.RunBoundCountedAtCtx); it goes when
// benchmark/replay.go is next opened, and with it owned and
// cloneResult.
func (e *Engine) AskCtx(ctx context.Context, question string) (*Answer, error) {
	ans, err := e.Ask(ctx, question, 0)
	return owned(ans), err
}

// ask is the one pipeline behind every entry point, single-shot and
// conversational: correct → answer-cache lookup → interpret → snapshot
// → execute → store. prev is the conversation context (see interpret);
// it never reaches the cache. The lookup comes before any parsing and
// is right whatever prev is, because only non-follow-up answers are
// ever stored and a stored key's tokens read as a complete question —
// the reading that wins regardless of context — so a hit is never a
// follow-up. A failed ask returns the partial answer, with the stage
// latencies of what did run: the serving dashboards aggregate error
// paths as much as successes.
func (e *Engine) ask(ctx context.Context, question string, prev *iql.Query, execPar int) (ans *Answer, followUp bool, err error) {
	total := time.Now()
	toks, fixes, correct := e.correctTokens(question)

	var key []byte
	if e.cache != nil {
		var buf [128]byte // a typical question's key fits: a hit puts no key on the heap
		key = appendCacheKey(buf[:0], toks)
		if entry, ok := e.cache.lookup(key, e.DB.TableVersion); ok {
			ans = entry.hit()
			ans.Question = question
			ans.Corrections = fixes // this ask's repairs, not the cached ask's
			ans.Cached = true
			ans.Timings = Timings{Correct: correct, Total: time.Since(total)}
			return ans, false, nil
		}
	}

	ans = &Answer{Question: question, Corrections: fixes, Timings: Timings{Correct: correct}}
	var sn *store.Snapshot
	followUp, err = e.interpret(ans, toks, prev)
	if err == nil {
		sn = e.DB.Snapshot()
		err = e.execute(ctx, ans, sn, execPar)
	}
	if err == nil && e.cache != nil && !followUp && cacheable(ans, e.maxRows, e.maxBytes) {
		e.cache.store(string(key), snapshotDeps(sql.Tables(ans.SQL), sn), &cacheEntry{ans: cacheableAnswer(ans)})
	}
	ans.Timings.Total = time.Since(total)
	return ans, followUp, err
}

// execute plans ans.SQL at the engine's parallelism degree against the
// pinned snapshot — through the plan-template cache when enabled —
// runs it on that same snapshot and verbalizes the result into ans,
// filling the plan/bind/execute timings. Plans are always compiled and
// cached at the engine's full Parallelism; execPar > 0 caps the degree
// at run time only (Exchange degrades to a serial passthrough at cap
// 1), so a load-shed ask reuses the cached parallel plan without
// recompiling and the template cache never forks per degree.
func (e *Engine) execute(ctx context.Context, ans *Answer, sn *store.Snapshot, execPar int) error {
	stmt, tm := ans.SQL, &ans.Timings
	p, params, err := e.planFor(ans, sn)
	if err != nil {
		return fmt.Errorf("core: planning %q: %w", stmt, err)
	}
	ans.Plan = p
	ans.Degraded = execPar > 0 && execPar < e.opts.Parallelism

	start := time.Now()
	res, err := exec.Run(ctx, sn, p, exec.RunOpts{Params: params, Par: execPar, SegC: &e.segC})
	tm.Execute = time.Since(start)
	if err != nil {
		return fmt.Errorf("core: executing %q: %w", stmt, err)
	}
	ans.Result = res

	start = time.Now()
	ans.Paraphrase = nlg.Paraphrase(ans.Query, e.DB.Schema)
	ans.Response = nlg.Respond(ans.Query, res, e.DB.Schema)
	tm.Verbalize = time.Since(start)
	return nil
}

// planFor obtains the execution plan for ans.SQL, plus the parameter
// vector execution must bind (nil on the one-shot path). With the
// plan-template cache enabled, the statement is normalized into a
// template and constant vector, the cache is consulted under the
// shape key, and a hit skips planning entirely: the cached template
// re-binds to the new constants (Timings.Bind). A miss compiles and
// caches a fresh template (Timings.Plan) with the versions sn pins for
// the tables it reads, which a later write moves past.
func (e *Engine) planFor(ans *Answer, sn *store.Snapshot) (*plan.Plan, []store.Value, error) {
	stmt, tm := ans.SQL, &ans.Timings
	if e.plans == nil {
		start := time.Now()
		p, err := exec.Compile(sn, stmt, e.opts.Parallelism)
		tm.Plan = time.Since(start)
		return p, nil, err
	}
	start := time.Now()
	// The hit path computes shape key and constants in one pass over
	// the statement into pooled scratch: no template tree, no key
	// string, no allocation at all unless we must compile — GC assists
	// from the surrounding pipeline then never land inside a bind.
	sc := shapeScratchPool.Get().(*shapeScratch)
	keyBytes, params := sql.ShapeInto(stmt, sc.buf[:0], sc.params[:0])
	if pq, ok := e.plans.lookup(keyBytes, sn.TableVersion); ok {
		// The lookup just checked every table the template read against
		// sn, the shape key encodes the kind signature, and every cached
		// template was compiled at the engine's degree: the pinned bind
		// reuses its tree.
		p, _, err := pq.BindPinned(sn, params, e.opts.Parallelism)
		tm.Bind = time.Since(start)
		// Execution outlives the scratch: hand it an exact copy (made
		// outside the timed window — it is pool mechanics, not plan
		// work).
		bound := append(make([]store.Value, 0, len(params)), params...)
		sc.recycle(keyBytes, params)
		if err != nil {
			return nil, nil, err
		}
		ans.PlanCached = true
		return p, bound, nil
	}
	key := string(keyBytes)
	sc.recycle(keyBytes, params)
	// The compile path re-derives the constants alongside the template
	// tree; Parameterize and ShapeInto agree on slot order by contract.
	tmpl, bound := sql.Parameterize(stmt)
	pq, err := exec.PrepareTemplateAt(sn, tmpl, bound, e.opts.Parallelism)
	if err != nil {
		tm.Plan = time.Since(start)
		return nil, nil, err
	}
	e.plans.store(key, snapshotDeps(sql.Tables(tmpl), sn), pq)
	// The template was compiled at this snapshot, binding and degree:
	// its cached plan IS the bind result, no re-derivation needed.
	p := pq.Tmpl.Plan()
	tm.Plan = time.Since(start)
	return p, bound, nil
}

// shapeScratch is the pooled working memory of one planFor call: the
// shape-key buffer and constant vector are reused across asks so the
// plan-cache hit path performs no heap allocation.
type shapeScratch struct {
	buf    []byte
	params []store.Value
}

func (sc *shapeScratch) recycle(buf []byte, params []store.Value) {
	sc.buf, sc.params = buf[:0], params[:0]
	shapeScratchPool.Put(sc)
}

var shapeScratchPool = sync.Pool{New: func() any {
	return &shapeScratch{buf: make([]byte, 0, 256), params: make([]store.Value, 0, 8)}
}}

// Conversation is a multi-turn session over the engine: the engine's
// one ask pipeline plus a context, the interpretation of the last turn
// that succeeded. The context is mutable state, so a Conversation
// serializes its own turns internally — concurrent Asks on one
// Conversation are safe, they just order arbitrarily. Independent
// Conversations over a shared engine run fully in parallel.
type Conversation struct {
	mu   sync.Mutex
	e    *Engine
	prev *iql.Query // nil when fresh; shared with the answers that carried it, never written
}

// NewConversation starts a dialogue session.
func (e *Engine) NewConversation() *Conversation {
	return &Conversation{e: e}
}

// Reset clears the conversational context.
func (c *Conversation) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prev = nil
}

// Context exposes the current context query (nil when fresh).
func (c *Conversation) Context() *iql.Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prev
}

// Ask interprets one utterance against the conversation context and
// executes it, reporting whether the context was used. It is
// Engine.Ask with one more input: the same corrections, timings,
// snapshot pinning, classified errors, degree cap, answer cache and
// read-only Result. A complete question replaces the context and,
// repeated, is served from the cache single-shot asks share; a fragment
// ("only those in Math", "how many") refines the context and is never
// cached, its meaning being the context's as much as its own.
//
// The context moves only when the turn succeeds. A turn that fails at
// any stage — outside coverage, unrelatable, a planning or execution
// error, a deadline, a client gone — leaves it exactly as it was, so
// the next fragment refines the last question the caller saw answered.
func (c *Conversation) Ask(ctx context.Context, question string, par int) (*Answer, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ans, followUp, err := c.e.ask(ctx, question, c.prev, par)
	if err == nil {
		c.prev = ans.Query
	}
	return ans, followUp, err
}
