package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/iql"
	"repro/internal/nlg"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/strutil"
)

// The traced replay answers questions the way core.Engine.AskShedCtx
// does, but from here: it calls each layer's public functions in
// core's order and records one span around every call. The engine's
// two private caches are stood in for by the maps below, which keep
// the same keys, the same validity rule (per-table versions) and the
// same bounds, so that a replayed question hits or misses exactly when
// the engine's own ask of it does.

// span is one timed call. Start and End are nanoseconds since the
// replay began; Parent is the ID of the enclosing span, -1 for the
// root span of a question.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Q      int    `json:"q"` // question number within the replay
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	on    bool // off while the replay warms its caches
}

// begin opens a span and returns its ID (-1 while tracing is off).
func (t *tracer) begin(name string, parent, q int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Q: q, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// inside records a call of duration d as a child at the end of its
// parent's interval. It places semindex.annotate, which
// grammar.Prepare calls internally and which is therefore timed by a
// second call of its own: the duration is measured, the position
// within grammar.prepare is where the first call ran.
func (t *tracer) inside(name string, parent, q int, d time.Duration) {
	if !t.on {
		return
	}
	p := t.spans[parent]
	start := p.End - int64(d)
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Q: q, Name: name, Start: start, End: p.End})
}

type tableVersion struct {
	table   string
	version uint64
}

func depsOf(tables []string, sn *store.Snapshot) []tableVersion {
	deps := make([]tableVersion, len(tables))
	for i, name := range tables {
		deps[i] = tableVersion{name, sn.TableVersion(name)}
	}
	return deps
}

// current reports whether every table is still at the version deps
// recorded: the validity rule of both of core's caches.
func current(deps []tableVersion, version func(table string) uint64) bool {
	for _, d := range deps {
		if version(d.table) != d.version {
			return false
		}
	}
	return true
}

type cachedAnswer struct {
	ans  *core.Answer
	deps []tableVersion
}

type cachedPlan struct {
	pq   *exec.PreparedQuery
	deps []tableVersion
}

// copyAnswer is the copy an answer crosses core's answer cache as, in
// both directions: the struct and its result rows.
func copyAnswer(ans *core.Answer) *core.Answer {
	cp := *ans
	res := &exec.Result{Cols: append([]string(nil), ans.Result.Cols...), Rows: make([]store.Row, len(ans.Result.Rows))}
	for i, r := range ans.Result.Rows {
		res.Rows[i] = append(store.Row(nil), r...)
	}
	cp.Result = res
	return &cp
}

// replayer holds the replay's engine (for the untraced asks the replay
// is compared with) and the stand-ins for that engine's caches.
type replayer struct {
	eng     *core.Engine
	opts    core.Options
	tr      tracer
	answers map[string]*cachedAnswer
	plans   map[string]*cachedPlan
	keyBuf  []byte
	params  []store.Value
	segC    store.SegCounters
	partC   store.PartCounters

	// per executed question
	cands, ranked, rowsOut []float64
	executed               int
}

// answerKey is core's answer-cache key: token kind and surface text.
func answerKey(toks []strutil.Token) string {
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

// replayed is what answering one question from here produced.
type replayed struct {
	ans    *core.Answer
	sn     *store.Snapshot // nil on an answer-cache hit
	cached bool
	took   time.Duration // the root span, while tracing is on
}

// ask answers one question layer by layer under a root span.
func (rp *replayer) ask(ctx context.Context, q int, text string) (replayed, error) {
	tr := &rp.tr
	root := tr.begin("core.ask", -1, q)
	got, prepare, toks, err := rp.answer(ctx, root, q, text)
	tr.end(root)
	if tr.on {
		got.took = time.Duration(tr.spans[root].End - tr.spans[root].Start)
	}
	if tr.on && prepare >= 0 {
		// semindex.annotate runs inside grammar.Prepare, out of reach
		// from here: time a second call of it, after the root span has
		// closed so that the question is not charged twice.
		start := time.Now()
		rp.eng.Idx.Annotate(toks)
		tr.inside("semindex.annotate", prepare, q, time.Since(start))
	}
	return got, err
}

// answer is the body of ask. It also returns the grammar.prepare span
// (-1 if the question never got that far) and the tokens it annotated.
func (rp *replayer) answer(ctx context.Context, root, q int, text string) (got replayed, prepare int, ptoks []strutil.Token, err error) {
	tr, db := &rp.tr, rp.eng.DB
	prepare = -1
	fail := func(err error) (replayed, int, []strutil.Token, error) { return replayed{}, prepare, ptoks, err }

	s := tr.begin("strutil.tokenize", root, q)
	toks := strutil.Tokenize(text)
	tr.end(s)

	s = tr.begin("semindex.correct", root, q)
	toks, _ = rp.eng.Idx.Correct(toks, rp.opts.SpellMaxDist)
	tr.end(s)

	s = tr.begin("core.cache_lookup", root, q)
	key := answerKey(toks)
	var hit *core.Answer
	if e := rp.answers[key]; e != nil {
		if current(e.deps, db.TableVersion) {
			hit = copyAnswer(e.ans)
			hit.Question, hit.Cached = text, true
		} else {
			delete(rp.answers, key)
		}
	}
	tr.end(s)
	if hit != nil {
		return replayed{ans: hit, cached: true}, prepare, nil, nil
	}

	prepare = tr.begin("grammar.prepare", root, q)
	prepared := rp.eng.G.Prepare(toks)
	tr.end(prepare)
	ptoks = prepared.Toks

	s = tr.begin("grammar.parse", root, q)
	cands := rp.eng.G.ParsePrepared(prepared)
	tr.end(s)
	if len(cands) == 0 {
		return fail(fmt.Errorf("%q is outside the grammar's coverage", text))
	}

	s = tr.begin("interp.rank", root, q)
	ranked := interp.Rank(cands, db.Schema, rp.opts.Weights)
	tr.end(s)
	if len(ranked) == 0 {
		return fail(fmt.Errorf("no interpretation of %q connects over the schema", text))
	}
	query := ranked[0].Query

	s = tr.begin("iql.tosql", root, q)
	stmt, err := iql.ToSQL(query, db.Schema)
	tr.end(s)
	if err != nil {
		return fail(err)
	}

	s = tr.begin("store.snapshot", root, q)
	sn := db.Snapshot()
	tr.end(s)

	p, bound, err := rp.planFor(root, q, stmt, sn)
	if err != nil {
		return fail(err)
	}

	s = tr.begin("exec.run", root, q)
	res, err := exec.RunBoundCountedAtCtx(ctx, sn, p, bound, 0, &rp.segC, &rp.partC)
	tr.end(s)
	if err != nil {
		return fail(err)
	}

	ans := &core.Answer{Question: text, Ranked: ranked, Query: query, SQL: stmt, Plan: p, Result: res}

	s = tr.begin("nlg.paraphrase", root, q)
	ans.Paraphrase = nlg.Paraphrase(query, db.Schema)
	tr.end(s)

	s = tr.begin("nlg.respond", root, q)
	ans.Response = nlg.Respond(query, res, db.Schema)
	tr.end(s)

	s = tr.begin("core.cache_store", root, q)
	if _, ok := rp.answers[key]; !ok && len(rp.answers) >= rp.opts.AnswerCacheSize {
		for victim := range rp.answers {
			delete(rp.answers, victim)
			break
		}
	}
	rp.answers[key] = &cachedAnswer{ans: copyAnswer(ans), deps: depsOf(sql.Tables(stmt), sn)}
	tr.end(s)

	if tr.on {
		rp.executed++
		rp.cands = append(rp.cands, float64(len(cands)))
		rp.ranked = append(rp.ranked, float64(len(ranked)))
		rp.rowsOut = append(rp.rowsOut, float64(len(res.Rows)))
	}
	return replayed{ans: ans, sn: sn}, prepare, ptoks, nil
}

// planFor is core's planFor: shape the statement, bind a cached
// template whose stats epoch still stands, compile otherwise.
func (rp *replayer) planFor(root, q int, stmt *sql.SelectStmt, sn *store.Snapshot) (*plan.Plan, []store.Value, error) {
	tr, par := &rp.tr, rp.opts.Parallelism

	s := tr.begin("sql.shape", root, q)
	var params []store.Value
	rp.keyBuf, params = sql.ShapeInto(stmt, rp.keyBuf[:0], rp.params[:0])
	rp.params = params[:0]
	tr.end(s)

	if e := rp.plans[string(rp.keyBuf)]; e != nil {
		s = tr.begin("plan.bind", root, q)
		if current(e.deps, sn.TableVersion) && e.pq.Tmpl.IndexesLive(sn) {
			p, _, err := e.pq.BindPinned(sn, params, par)
			bound := append(make([]store.Value, 0, len(params)), params...)
			tr.end(s)
			if err == nil {
				return p, bound, nil
			}
		} else {
			tr.end(s)
		}
		delete(rp.plans, string(rp.keyBuf))
	}
	key := string(rp.keyBuf)

	s = tr.begin("sql.parameterize", root, q)
	tmpl, bound := sql.Parameterize(stmt)
	tr.end(s)

	s = tr.begin("plan.compile", root, q)
	pq, err := exec.PrepareTemplateAt(sn, tmpl, bound, par)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if len(rp.plans) >= rp.opts.PlanCacheSize {
		for victim := range rp.plans {
			delete(rp.plans, victim)
			break
		}
	}
	rp.plans[key] = &cachedPlan{pq: pq, deps: depsOf(sql.Tables(tmpl), sn)}
	return pq.Tmpl.Plan(), bound, nil
}

// refAlways is the database size, in rows, up to which a replay checks
// every executed question against the reference executor. That
// executor materializes whole join products, 0.1-2 s a question on the
// telemetry databases, so above it every shape.refEvery-th is checked.
const refAlways = 1 << 16

// replayResult is what the traced replay measured.
type replayResult struct {
	questions int
	spans     []span
	// direct, untraced Engine.AskCtx of the same questions, in us
	askMiss, askHit []float64
	// per question: the replay's root span over the untraced ask,
	// apart for answer-cache misses and hits
	shareMiss, shareHit []float64
	cands, ranked       []float64
	rowsOut             []float64
	executed            int
	segScan, segSkip    float64
	partScan, partCut   float64
}

// share is how long the replay takes as a share of the untraced ask:
// the median over the questions that ran the pipeline, and the
// standard error of that median (from the quartiles, as for a normal
// sample). On a cache hit the pipeline is three calls and a few
// microseconds, of which the recording itself is a tenth, so hits
// speak only where a replay has nothing else (ask_repeat).
func (rr *replayResult) share() (share, stderr float64) {
	xs := rr.shareMiss
	if len(xs) == 0 {
		xs = rr.shareHit
	}
	sigma := (quantile(xs, 0.75) - quantile(xs, 0.25)) / 1.349
	return median(xs), 1.2533 * sigma / math.Sqrt(float64(len(xs)))
}

// runReplay replays the stream's first questions single-threaded, each
// one both through the layer-by-layer path above and through an
// untraced Engine.AskCtx, on a fresh engine over the run's database so
// that both start from the same empty caches and see the same hits and
// misses. Rows are compared with the reference executor's.
func (r *run) runReplay() error {
	n := r.sh.replay
	if r.w.heavy {
		n = r.sh.replayHeavy
	}
	// Untraced turns first: enough to compile every template's plan,
	// and the whole question set where it is finite, so that the
	// replay proper measures the workload's steady state.
	turns := r.qs.fixed
	if turns == nil {
		for i := 0; i < 12; i++ {
			turns = append(turns, r.qs.at(n+i))
		}
	}
	warm := len(turns)
	for i := 0; i < n; i++ {
		turns = append(turns, r.qs.at(i))
	}

	eng := core.NewEngine(r.data.db, core.DefaultOptions())
	rp := &replayer{
		eng: eng, opts: eng.Options(),
		answers: map[string]*cachedAnswer{}, plans: map[string]*cachedPlan{},
	}
	rp.tr.spans = make([]span, 0, n*20)
	out := &replayResult{questions: n}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	direct := func(text string) (d time.Duration, cached bool, err error) {
		start := time.Now()
		ans, err := eng.AskCtx(ctx, text)
		d = time.Since(start)
		if err != nil {
			return 0, false, err
		}
		if ans.Cached {
			out.askHit = append(out.askHit, us(d))
		} else {
			out.askMiss = append(out.askMiss, us(d))
		}
		return d, ans.Cached, nil
	}

	refs := map[string]string{} // reference rows by SQL text and table versions
	for i, q := range turns {
		if i == warm {
			rp.tr.on, rp.tr.t0 = true, time.Now()
		}
		if r.w.loader && i%replayBatchEvery == 0 {
			if err := r.commitBatch(); err != nil {
				return err
			}
		}
		// Alternate which path runs first: the second one finds the
		// processor caches warm. In pairs, because ask_while_loading
		// alternates between its two tables question by question.
		var askD time.Duration
		var cached bool
		var got replayed
		var err error
		if i/2%2 == 0 {
			if askD, cached, err = direct(q.text); err == nil {
				got, err = rp.ask(ctx, i-warm, q.text)
			}
		} else {
			if got, err = rp.ask(ctx, i-warm, q.text); err == nil {
				askD, cached, err = direct(q.text)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: replaying %q: %w", r.w.name, q.text, err)
		}
		if cached != got.cached {
			return fmt.Errorf("%s: replaying %q: engine answer cache hit=%v, the replay's stand-in hit=%v", r.w.name, q.text, cached, got.cached)
		}
		if !got.cached {
			if got.ans.SQL.String() != q.sql {
				return fmt.Errorf("%s: replaying %q: generated %s, want %s", r.w.name, q.text, got.ans.SQL, q.sql)
			}
			// A question just answered is in the answer cache: ask it
			// again for the hit-path figure every workload reports.
			if _, _, err := direct(q.text); err != nil {
				return err
			}
			if r.data.rows <= refAlways || rp.executed%r.sh.refEvery == 0 {
				key := q.sql
				for _, d := range depsOf(sql.Tables(got.ans.SQL), got.sn) {
					key += fmt.Sprint("|", d.version)
				}
				want, ok := refs[key]
				if !ok {
					if want, err = reference(got.sn, q); err != nil {
						return err
					}
					refs[key] = want
				}
				if resultBag(got.ans.Result) != want {
					return fmt.Errorf("%s: replaying %q: rows differ from the reference executor's", r.w.name, q.text)
				}
			}
		}
		if i < warm {
			continue
		}
		if share := float64(got.took) / float64(askD); cached {
			out.shareHit = append(out.shareHit, share)
		} else {
			out.shareMiss = append(out.shareMiss, share)
		}
	}
	out.spans = rp.tr.spans
	out.cands, out.ranked, out.rowsOut, out.executed = rp.cands, rp.ranked, rp.rowsOut, rp.executed
	out.segScan, out.segSkip = float64(rp.segC.Scanned.Load()), float64(rp.segC.Skipped.Load())
	out.partScan, out.partCut = float64(rp.partC.Scanned.Load()), float64(rp.partC.Pruned.Load())
	r.replay = out

	// Outside 0.9-1.1 by more than the sample can be blamed for, the
	// replay no longer follows what the engine does.
	if share, se := out.share(); share+2*se < 0.9 || share-2*se > 1.1 {
		return fmt.Errorf("%s: the replay takes %.2f (+-%.2f) of an untraced ask: it no longer follows what the engine does", r.w.name, share, se)
	}
	return r.writeTrace()
}

// writeTrace writes the replay's spans to <out>/trace-<workload>.json.
func (r *run) writeTrace() error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.w.name, r.seed, r.replay.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, "trace-"+r.w.name+".json"), data, 0o644)
}

// spanStats folds the spans by name: each call's duration, and each
// name's self time (duration minus the part its children cover).
func spanStats(spans []span) (durs map[string][]float64, self map[string]float64) {
	durs, self = map[string][]float64{}, map[string]float64{}
	for _, sp := range spans {
		d := float64(sp.End - sp.Start)
		durs[sp.Name] = append(durs[sp.Name], d/1e3)
		self[sp.Name] += d
		if sp.Parent >= 0 {
			self[spans[sp.Parent].Name] -= d
		}
	}
	return durs, self
}
