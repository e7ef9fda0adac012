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

	// Partitions, when > 1, hash-partitions every table N ways at engine
	// construction: tables joined by a foreign key are co-partitioned on
	// the FK columns (equal join keys land in the same partition index,
	// so their joins run partition-wise with no shared build side), and
	// tables no foreign key touches partition on their primary key. Bulk
	// loads then land under per-partition writer locks and scale with
	// concurrent loaders. 0 or 1 keeps every table single-stream — the
	// pre-partitioning layout, and the F13 ablation baseline.
	Partitions int

	// AnswerCacheSize bounds the engine answer cache (entries), keyed
	// by corrected tokens and invalidated by the store data version.
	// 0 disables caching — set that when measuring pipeline latency.
	AnswerCacheSize int

	// PlanCacheSize bounds the plan-template cache (entries), keyed by
	// query shape (parameterized SQL + constant kinds) and validated
	// against per-table stats epochs: questions repeating a shape with
	// different constants skip planning and pay only a bind. 0 disables
	// the cache — every ask then plans from scratch (the F9 ablation).
	PlanCacheSize int

	// AnswerCacheMaxRows / AnswerCacheMaxBytes cap a single answer-cache
	// entry: a result exceeding either cap is served but never cached,
	// so one pathological question cannot pin a huge result set behind
	// an LRU slot. 0 resolves to the defaults (4096 rows, 1 MiB);
	// negative disables the cap.
	AnswerCacheMaxRows  int
	AnswerCacheMaxBytes int

	// SpillDir, when non-empty, enables larger-than-memory operation:
	// sealed segments are serialized write-once into this directory and
	// the segment cache evicts decoded payloads (zone maps stay
	// resident) once they exceed SegCacheBytes
	// (store.DefaultSegCacheBytes when 0). Empty keeps the store fully
	// in memory.
	SpillDir      string
	SegCacheBytes int64
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
	Parse     time.Duration // semantic-grammar parsing
	Rank      time.Duration // interpretation ranking
	Generate  time.Duration // IQL -> SQL translation
	Plan      time.Duration // query planning and optimization (template compiles included)
	Bind      time.Duration // plan-cache hit: normalize + shape lookup + bind, no planning
	Execute   time.Duration // plan execution
	Verbalize time.Duration // English paraphrase of the interpretation and rendering of the result
	Total     time.Duration
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

	// PlanCacheHits / PlanCacheMisses are the engine's cumulative
	// plan-template cache counters at the time this answer was
	// produced — the serving-path observability the F9 experiment
	// reads its hit ratio from.
	PlanCacheHits   uint64
	PlanCacheMisses uint64

	// Rendered is non-nil exactly when AskShedCtx served this answer
	// from the answer cache: Result is then the cache entry's own rows,
	// shared with every other hit and read-only, and Rendered is the
	// entry's slot for whatever encoding of them the caller memoizes
	// (see Rendering). Ask and AskCtx return owning copies and leave it
	// nil.
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
	G     *grammar.Grammar
	opts  Options
	cache *answerCache // nil when AnswerCacheSize is 0
	plans *planCache   // nil when PlanCacheSize is 0

	// segC / partC accumulate runtime scan counters across every ask
	// the engine serves: segments decoded vs skipped by zone maps, and
	// partitions read vs pruned by bound predicates. Atomic fields —
	// always addressed through the pointer receivers below, never
	// copied — surfaced by the serving layer's /api/stats.
	segC  store.SegCounters
	partC store.PartCounters
}

// NewEngine builds the semantic index and grammar for db.
func NewEngine(db *store.DB, opts Options) *Engine {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.SpillDir != "" {
		if err := db.EnableSpill(opts.SpillDir, opts.SegCacheBytes); err != nil {
			// Engine construction has no error path; a spill directory
			// that cannot be created is a deployment misconfiguration,
			// not a runtime condition to degrade around.
			panic(fmt.Sprintf("core: enabling segment spill: %v", err))
		}
	}
	if opts.Partitions > 1 {
		if err := partitionTables(db, opts.Partitions); err != nil {
			// Same stance as spill: the schema names the partition
			// columns, so a failure here is a misconfiguration.
			panic(fmt.Sprintf("core: partitioning tables: %v", err))
		}
	}
	idx := semindex.Build(db, opts.Index)
	e := &Engine{
		DB:   db,
		Idx:  idx,
		G:    grammar.New(idx, opts.Grammar),
		opts: opts,
	}
	if opts.AnswerCacheSize > 0 {
		maxRows, maxBytes := opts.AnswerCacheMaxRows, opts.AnswerCacheMaxBytes
		if maxRows == 0 {
			maxRows = defaultCacheMaxRows
		}
		if maxBytes == 0 {
			maxBytes = defaultCacheMaxBytes
		}
		e.cache = newAnswerCache(opts.AnswerCacheSize, maxRows, maxBytes)
	}
	if opts.PlanCacheSize > 0 {
		e.plans = newPlanCache(opts.PlanCacheSize)
	}
	return e
}

// partitionTables hash-partitions every table of db n ways on its
// natural co-partitioning column. Foreign keys drive the assignment —
// both endpoint columns of each FK (in declaration order, first
// assignment wins) — so FK-joined tables are co-partitioned and their
// joins run partition-wise; tables no foreign key touches fall back to
// their primary key.
func partitionTables(db *store.DB, n int) error {
	cols := map[string]string{}
	for _, fk := range db.Schema.ForeignKeys {
		if _, ok := cols[fk.Table]; !ok {
			cols[fk.Table] = fk.Column
		}
		if _, ok := cols[fk.RefTable]; !ok {
			cols[fk.RefTable] = fk.RefColumn
		}
	}
	for _, t := range db.Schema.Tables {
		col, ok := cols[t.Name]
		if !ok {
			col = t.PrimaryKey
		}
		if col == "" {
			continue // no usable partition column; stays single-stream
		}
		if err := db.Table(t.Name).Partition(store.HashPartition(col, n)); err != nil {
			return err
		}
	}
	return nil
}

// PlanCacheStats returns the cumulative plan-template cache hit/miss
// counters (zeros when the cache is disabled).
func (e *Engine) PlanCacheStats() (hits, misses uint64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.stats()
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

// PartitionStats returns the cumulative runtime partition counters
// across every ask served: partitions read vs partitions pruned by
// bound predicates against partition statistics.
func (e *Engine) PartitionStats() (scanned, pruned int64) {
	return e.partC.Scanned.Load(), e.partC.Pruned.Load()
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
// fragment reading was the one chosen.
func (e *Engine) interpret(ans *Answer, toks []strutil.Token, prev *iql.Query) (followUp bool, err error) {
	tm := &ans.Timings

	start := time.Now()
	prepared := e.G.Prepare(toks)
	tm.Annotate = time.Since(start)

	start = time.Now()
	cands := e.G.ParsePrepared(prepared)
	tm.Parse = time.Since(start)

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
// consistent data version even while writers are active. The answer is
// the caller's to keep and mutate.
func (e *Engine) Ask(question string) (*Answer, error) {
	return e.AskCtx(context.Background(), question)
}

// AskCtx is Ask under a request context: execution observes ctx
// cancellation at batch granularity and aborts with context.Cause(ctx)
// instead of finishing work nobody is waiting for. A background
// context makes it exactly Ask.
func (e *Engine) AskCtx(ctx context.Context, question string) (*Answer, error) {
	ans, err := e.AskShedCtx(ctx, question, 0)
	return owned(ans), err
}

// AskShedCtx is AskCtx with an execution-time parallelism cap: execPar
// == 0 runs at the engine's configured Parallelism, execPar == 1 sheds
// the (cached, parallel) plan to serial execution — the serving
// layer's graceful-degradation path under load. Results are row-for-
// row identical at any degree; the answer reports Degraded when the
// cap actually lowered the degree.
//
// Unlike Ask and AskCtx, a cache hit here copies only the Answer
// struct: its Result is the cache entry's own and must not be written
// (see Answer.Rendered), and a miss's Result.Cols is the cached plan's
// own slice, read-only likewise. That is the contract the serving
// layer, which only encodes the result, asks for — what a hit costs
// then does not grow with the size of its result.
func (e *Engine) AskShedCtx(ctx context.Context, question string, execPar int) (*Answer, error) {
	ans, _, err := e.ask(ctx, question, nil, execPar)
	return ans, err
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

	var key string
	if e.cache != nil {
		key = cacheKey(toks)
		if entry := e.cache.lookup(key, e.DB.TableVersion); entry != nil {
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
	ans.Timings.Total = time.Since(total)
	if err != nil {
		return ans, followUp, err
	}
	if e.cache != nil && !followUp {
		e.cache.store(key, snapshotDeps(sql.Tables(ans.SQL), sn), cacheableAnswer(ans), e.DB.TableVersion)
	}
	return ans, followUp, nil
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
	res, err := exec.Run(ctx, sn, p, exec.RunOpts{Params: params, Par: execPar, SegC: &e.segC, PartC: &e.partC})
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
// re-binds to the new constants (Timings.Bind), re-checking its
// selectivity-sensitive choices against the pinned snapshot's
// statistics. A miss compiles and caches a fresh template
// (Timings.Plan), fingerprinted with the snapshot's table versions so
// stats drift invalidates it.
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
	if pq := e.plans.lookup(keyBytes, sn); pq != nil {
		if !pq.Tmpl.IndexesLive(sn) {
			// Permanently stale: index DDL is invisible to the version
			// fingerprint, and every future bind of this entry would
			// recompile. Drop it and fall through to the miss path,
			// which stores a fresh template — the shape turns hot
			// again instead of cold-planning through the cache forever.
			e.plans.remove(string(keyBytes))
			e.plans.demote()
		} else {
			// The lookup just revalidated the stats epoch against sn,
			// and the shape key encodes the kind signature: bind
			// pinned.
			p, reused, err := pq.BindPinned(sn, params, e.opts.Parallelism)
			if err == nil {
				// A bind that had to recompile (an outlier constant
				// moved a plan decision) is honest about it: the cost
				// is planning, not binding, the answer is not
				// plan-cached, and the counters agree.
				if reused {
					tm.Bind = time.Since(start)
					ans.PlanCached = true
				} else {
					tm.Plan = time.Since(start)
					e.plans.demote()
				}
				// Execution outlives the scratch: hand it an exact
				// copy (made outside the timed window — it is pool
				// mechanics, not plan work).
				bound := append(make([]store.Value, 0, len(params)), params...)
				ans.PlanCacheHits, ans.PlanCacheMisses = e.plans.stats()
				sc.recycle(keyBytes, params)
				return p, bound, nil
			}
			// A cached template that stopped binding (schema drift
			// broke its shape contract) is dropped and recompiled
			// below.
			e.plans.remove(string(keyBytes))
			e.plans.demote()
		}
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
	e.plans.store(key, pq, snapshotDeps(sql.Tables(tmpl), sn))
	// The template was compiled at this snapshot, binding and degree:
	// its cached plan IS the bind result, no re-derivation needed.
	p := pq.Tmpl.Plan()
	tm.Plan = time.Since(start)
	ans.PlanCacheHits, ans.PlanCacheMisses = e.plans.stats()
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
// snapshot pinning, classified errors and answer cache. A complete
// question replaces the context and, repeated, is served from the
// cache single-shot asks share; a fragment ("only those in Math", "how
// many") refines the context and is never cached, its meaning being
// the context's as much as its own.
//
// The context moves only when the turn succeeds. A turn that fails at
// any stage — outside coverage, unrelatable, a planning or execution
// error, a deadline, a client gone — leaves it exactly as it was, so
// the next fragment refines the last question the caller saw answered.
func (c *Conversation) Ask(question string) (*Answer, bool, error) {
	return c.AskCtx(context.Background(), question)
}

// AskCtx is Ask under a request context (see Engine.AskCtx).
func (c *Conversation) AskCtx(ctx context.Context, question string) (*Answer, bool, error) {
	ans, followUp, err := c.AskShedCtx(ctx, question, 0)
	return owned(ans), followUp, err
}

// AskShedCtx is AskCtx with an execution-time parallelism cap (see
// Engine.AskShedCtx) — the form the serving layer calls, threading the
// request deadline and the admission controller's degradation verdict
// into the turn, and with the same read-only Result on a cache hit.
func (c *Conversation) AskShedCtx(ctx context.Context, question string, execPar int) (*Answer, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ans, followUp, err := c.e.ask(ctx, question, c.prev, execPar)
	if err == nil {
		c.prev = ans.Query
	}
	return ans, followUp, err
}
