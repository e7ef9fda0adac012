package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/grammar"
	"repro/internal/semindex"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/store"
)

// shape sizes a run. The full report, the driver's single-workload
// protocol and the smoke test run the same code at different sizes.
type shape struct {
	setups        int           // set-ups timed before each round; setup_s is the median of all
	warmup        time.Duration // untimed asks before each round
	round         time.Duration // one timed round, a whole number of slices
	rounds        int
	validate      int // constants per template checked against the reference at set-up
	scanEvents    int // events rows of ask_scan
	loadingEvents int // events rows ask_while_loading starts from
	replay        int // questions in the traced replay
	replayHeavy   int // the same for ask_scan, whose questions cost milliseconds
	refEvery      int // see refAlways
}

// slice is the interval rates and per-ask costs are taken over; a
// round reports the median of its slices, which a stall of the shared
// host moves less than it moves a total.
const slice = time.Second

// questions is a workload's question stream for one seed.
type questions struct {
	at       func(i int) question
	fixed    []question // the finite question set, nil when constants never repeat
	validate []question // asked once at set-up and checked against the reference executor
}

// workload is one traffic mix: a database, a question stream, and the
// cache behaviour the stream must show for its numbers to mean what
// BENCHMARK.json says they mean.
type workload struct {
	name, why string
	askers    int  // closed-loop clients
	loader    bool // a second thread commits event batches during timed rounds
	load      func(sh shape) database
	stream    func(sh shape, seed int64) questions
	// answer-cache hit share the timed rounds must stay within
	minHit, maxHit float64
	heavy          bool // replay sized by shape.replayHeavy
}

func freshStream(sh shape, seed int64) questions {
	s := newStream(freshTemplates, seed)
	return questions{at: s.at, validate: s.samples(sh.validate)}
}

var workloads = []*workload{
	{
		name:   "ask_fresh",
		why:    "tiny data and never-repeating constants: the linguistic front half, grammar above all, is the cost",
		askers: 2, load: func(shape) database { return loadUniversity() },
		stream: freshStream, maxHit: 0.01,
	},
	{
		name:   "ask_repeat",
		why:    "64 questions over and over: the pure answer-cache hit path, where per-request overhead shows first",
		askers: 2, load: func(shape) database { return loadUniversity() },
		stream: func(_ shape, seed int64) questions {
			fixed := repeatSet(seed)
			r := rand.New(rand.NewSource(seed))
			order := make([]uint8, 1<<16)
			for i := range order {
				order[i] = uint8(r.Intn(len(fixed)))
			}
			return questions{
				at:    func(i int) question { return fixed[order[i%len(order)]] },
				fixed: fixed, validate: fixed,
			}
		},
		minHit: 0.99, maxHit: 1,
	},
	{
		name:   "ask_scan",
		why:    "2^19 events and never-repeating constants: execute is most of each ask, so plan, exec and store changes show here",
		askers: 2, load: func(sh shape) database { return loadTelemetry(sh.scanEvents, 0) },
		stream: func(sh shape, seed int64) questions {
			s := newStream(scanTemplates(sh.scanEvents), seed)
			return questions{at: s.at, validate: s.samples(sh.validate)}
		},
		maxHit: 0.01, heavy: true,
	},
	{
		name:   "ask_while_loading",
		why:    "eight fixed questions beside a loader: snapshots, per-table cache invalidation, stats epochs and the bulk path",
		askers: 1, loader: true,
		load: func(sh shape) database {
			return loadTelemetry(sh.loadingEvents, batchRows*sh.batches())
		},
		stream: func(sh shape, _ int64) questions {
			fixed := loadingQuestions(sh.loadingEvents)
			return questions{
				at:    func(i int) question { return fixed[i%len(fixed)] },
				fixed: fixed, validate: fixed,
			}
		},
		maxHit: 1,
	},
}

// replayBatchEvery is how many replayed questions of ask_while_loading
// pass between two batches: one turn of the question set, so that every
// events question is a read after a write.
const replayBatchEvery = 8

func (sh shape) batchesPerRound() int { return int(sh.round / batchEvery) }

// batches is how many batches one database takes: a timed round's and
// a replay's.
func (sh shape) batches() int {
	return sh.batchesPerRound() + sh.replay/replayBatchEvery + 2
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// run is one workload set up and serving, and what has been measured
// on it so far.
type run struct {
	w  *workload
	sh shape
	qs questions

	data database
	eng  *core.Engine
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve has returned
	url  string

	setups                   []float64 // seconds, one per timed set-up
	semindexBuild, gramBuild time.Duration
	loadTime                 time.Duration // inside the load calls of the last set-up
	residentMB, bytesPerRow  float64

	refs   map[int]string // reference rows, as a bag, of each fixed question no load moves
	next   atomic.Int64   // next stream index to ask
	loaded int            // batches committed to the current database
	rounds []*round
	replay *replayResult
	seed   int64
	outDir string
}

func newRun(w *workload, sh shape, seed int64, outDir string) *run {
	return &run{w: w, sh: sh, seed: seed, outDir: outDir, qs: w.stream(sh, seed)}
}

// setUp builds the database, the engine and the server in their
// production configuration and brings a loopback listener up; it
// returns how long that took.
func (r *run) setUp() (time.Duration, error) {
	start := time.Now()
	r.data, r.loaded = r.w.load(r.sh), 0
	r.eng = core.NewEngine(r.data.db, core.DefaultOptions())
	r.srv = serve.New(r.eng, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("listen: %w", err)
	}
	r.hs = &http.Server{Handler: r.srv}
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // always returns ErrServerClosed after tearDown
	}()
	r.url = "http://" + ln.Addr().String()
	resp, err := http.Get(r.url + "/healthz")
	if err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return time.Since(start), nil
}

// tearDown stops the listener and drains the server; it returns once
// every goroutine set-up started has exited.
func (r *run) tearDown() error {
	if r.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.done
	if e := r.srv.Shutdown(ctx); err == nil {
		err = e
	}
	http.DefaultClient.CloseIdleConnections()
	r.hs, r.srv, r.eng, r.data = nil, nil, nil, database{}
	return err
}

// heapMB is the live heap after collection. The second collection
// empties what the first only moved to the sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// prepare readies the workload for a timed round: it sets it up
// (several times over, keeping the last), validates its questions
// against the reference executor the first time round, and warms it.
func (r *run) prepare() error {
	// A set-up of the university database takes milliseconds, too
	// short to time three times and trust: cheap set-ups repeat until
	// they have filled a second.
	var before float64
	var spent time.Duration
	for i := 0; i < r.sh.setups || (i < 5*r.sh.setups && spent < time.Second); i++ {
		if err := r.tearDown(); err != nil {
			return err
		}
		before = heapMB()
		d, err := r.setUp()
		if err != nil {
			return err
		}
		spent += d
		r.setups = append(r.setups, d.Seconds())
	}
	// The memory the set-up left behind.
	r.residentMB = heapMB() - before
	r.bytesPerRow = r.residentMB * (1 << 20) / float64(r.data.rows)
	r.loadTime = r.data.load

	opts := r.eng.Options()
	start := time.Now()
	idx := semindex.Build(r.data.db, opts.Index)
	r.semindexBuild = time.Since(start)
	start = time.Now()
	grammar.New(idx, opts.Grammar)
	r.gramBuild = time.Since(start)

	if r.refs == nil {
		if err := r.validate(); err != nil {
			return err
		}
	}
	if r.sh.warmup > 0 {
		warm := r.drive(r.sh.warmup, false)
		if warm.failed > 0 {
			return fmt.Errorf("%s: warm-up: %s", r.w.name, warm.errs[0])
		}
	}
	return nil
}

// answer is what the benchmark reads of an /api/ask response.
type answer struct {
	SQL        string          `json:"sql"`
	Response   string          `json:"response"`
	Rows       json.RawMessage `json:"rows"`
	Cached     bool            `json:"cached"`
	PlanCached bool            `json:"plan_cached"`
	Degraded   bool            `json:"degraded"`
	Timings    struct {
		Queue    int32 `json:"queue_us"`
		Correct  int32 `json:"correct_us"`
		Annotate int32 `json:"annotate_us"`
		Parse    int32 `json:"parse_us"`
		Rank     int32 `json:"rank_us"`
		Generate int32 `json:"generate_us"`
		Plan     int32 `json:"plan_us"`
		Bind     int32 `json:"bind_us"`
		Execute  int32 `json:"execute_us"`
		Total    int32 `json:"total_us"`
	} `json:"timings"`
}

// cellKey renders one result cell so that a store value and its JSON
// form compare equal. Numbers keep 12 significant digits: float
// aggregation is not associative, so a parallel AVG may differ from
// the reference in the last places, while a lost or doubled row moves
// whole digits.
func cellKey(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...)
	case float64:
		return strconv.AppendFloat(b, x, 'g', 12, 64)
	case string:
		return strconv.AppendQuote(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	}
	return append(b, '?')
}

func bag(rows [][]any) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b []byte
		for _, v := range row {
			b = append(cellKey(b, v), '\x1f')
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// resultBag is a result's rows as an order-free bag.
func resultBag(res *exec.Result) string {
	rows := make([][]any, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			switch v.Kind() {
			case store.KindInt, store.KindFloat:
				row[j], _ = v.AsFloat()
			case store.KindText:
				row[j] = v.Str()
			case store.KindBool:
				row[j] = v.BoolVal()
			}
		}
		rows[i] = row
	}
	return bag(rows)
}

func jsonBag(raw json.RawMessage) (string, error) {
	if len(raw) == 0 {
		return "", nil
	}
	var rows [][]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		return "", err
	}
	return bag(rows), nil
}

// reference runs the gold SQL of q through the reference executor.
func reference(sn *store.Snapshot, q question) (string, error) {
	stmt, err := sql.Parse(q.sql)
	if err != nil {
		return "", fmt.Errorf("gold SQL of %q: %w", q.text, err)
	}
	res, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		return "", fmt.Errorf("reference executor on %q: %w", q.text, err)
	}
	return resultBag(res), nil
}

// asker is one closed-loop client with its own keep-alive connection.
type asker struct {
	r       *run
	client  *http.Client
	buf     bytes.Buffer
	samples []sample
	// okRows remembers, per fixed question, the raw rows that last
	// compared equal to the reference, so that an unchanged cached
	// answer costs one byte comparison and not a decode.
	okRows     [][]byte
	lastEvents float64 // last "how many events" answer seen
	attempted  int
	rejected   int
	uncached   int // devices answers not served from the answer cache
	errs       []string
}

// sample is one answered ask of a timed round.
type sample struct {
	lat      time.Duration
	bytes    int32
	cached   bool
	degraded bool
	tm       [10]int32 // queue correct annotate parse rank generate plan bind execute total, in us
}

func (r *run) newAsker() *asker {
	return &asker{
		r:      r,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		okRows: make([][]byte, len(r.qs.fixed)),
	}
}

func (a *asker) close() { a.client.CloseIdleConnections() }

// post sends one ask and reads the whole reply; the latency runs from
// the send to the last byte of the body.
func (a *asker) post(text string) (status int, lat time.Duration, err error) {
	body, _ := json.Marshal(struct {
		Question string `json:"question"`
	}{text})
	start := time.Now()
	resp, err := a.client.Post(a.r.url+"/api/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	a.buf.Reset()
	_, err = io.Copy(&a.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// ask sends question q and checks the answer: status, generated SQL,
// a verbalized response, and the rows wherever a reference is known.
func (a *asker) ask(q question) (*answer, time.Duration, error) {
	status, lat, err := a.post(q.text)
	if err != nil {
		return nil, 0, fmt.Errorf("%q: %w", q.text, err)
	}
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			a.rejected++
		}
		return nil, 0, fmt.Errorf("%q: status %d: %s", q.text, status, bytes.TrimSpace(a.buf.Bytes()))
	}
	var ans answer
	if err := json.Unmarshal(a.buf.Bytes(), &ans); err != nil {
		return nil, 0, fmt.Errorf("%q: reply: %w", q.text, err)
	}
	if ans.SQL != q.sql {
		return nil, 0, fmt.Errorf("%q: generated %s, want %s", q.text, ans.SQL, q.sql)
	}
	if ans.Response == "" {
		return nil, 0, fmt.Errorf("%q: empty response", q.text)
	}
	if q.fixed >= 0 {
		if err := a.checkFixed(q, &ans); err != nil {
			return nil, 0, fmt.Errorf("%q: %w", q.text, err)
		}
	}
	return &ans, lat, nil
}

func (a *asker) checkFixed(q question, ans *answer) error {
	if a.r.w.loader {
		if onDevices(q.fixed) && !ans.Cached {
			a.uncached++
		}
		if q.fixed == loadingCountEvents {
			var rows [][]float64
			if err := json.Unmarshal(ans.Rows, &rows); err != nil || len(rows) != 1 || len(rows[0]) != 1 {
				return fmt.Errorf("rows %s are not one count", ans.Rows)
			}
			n := rows[0][0]
			if over := int(n) - a.r.sh.loadingEvents; over < 0 || over%batchRows != 0 {
				return fmt.Errorf("%v events: a torn batch", n)
			}
			if n < a.lastEvents {
				return fmt.Errorf("%v events after %v: the count went back", n, a.lastEvents)
			}
			a.lastEvents = n
		}
	}
	want, checked := a.r.refs[q.fixed]
	if !checked {
		return nil // rows move with every batch
	}
	if a.okRows[q.fixed] != nil && bytes.Equal(ans.Rows, a.okRows[q.fixed]) {
		return nil
	}
	got, err := jsonBag(ans.Rows)
	if err != nil {
		return fmt.Errorf("rows: %w", err)
	}
	if got != want {
		return fmt.Errorf("rows differ from the reference executor's")
	}
	a.okRows[q.fixed] = append([]byte(nil), ans.Rows...)
	return nil
}

// validate asks every validation question once, before any timing, and
// fails naming the first question whose status, SQL or rows are wrong.
// The fixed questions' reference rows are kept for the timed rounds.
func (r *run) validate() error {
	a := r.newAsker()
	defer a.close()
	sn := r.data.db.Snapshot()
	r.refs = map[int]string{}
	for _, q := range r.qs.validate {
		want, err := reference(sn, q)
		if err != nil {
			return fmt.Errorf("%s: %w", r.w.name, err)
		}
		if q.fixed >= 0 && (!r.w.loader || onDevices(q.fixed) || q.fixed == loadingOldWindow) {
			r.refs[q.fixed] = want
		}
		ans, _, err := a.ask(q)
		if err != nil {
			return fmt.Errorf("%s: validating %w", r.w.name, err)
		}
		got, err := jsonBag(ans.Rows)
		if err != nil {
			return fmt.Errorf("%s: validating %q: rows: %w", r.w.name, q.text, err)
		}
		if got != want {
			return fmt.Errorf("%s: validating %q: rows differ from the reference executor's", r.w.name, q.text)
		}
	}
	return nil
}

// round is what one timed round measured.
type round struct {
	dur       time.Duration
	samples   []sample
	attempted int
	failed    int
	rejected  int
	uncached  int
	errs      []string
	// per-slice rates and costs
	asksPerS, cpuMS, allocKB []float64
	// deltas over the round
	ansHits, ansMisses, planHits, planMisses float64
	gcCycles, gcCPU, allCPU                  float64
	loads                                    []loadSample
	loadErr                                  error
}

// loadSample is one committed batch, timed against its schedule.
type loadSample struct{ late, insert, commit time.Duration }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type serverStats struct {
	AnswerCache struct{ Hits, Misses float64 } `json:"answer_cache"`
	PlanCache   struct{ Hits, Misses float64 } `json:"plan_cache"`
}

func (r *run) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(r.url + "/api/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

var gcMetrics = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() (cycles, gcCPU, allCPU float64) {
	s := append([]metrics.Sample(nil), gcMetrics...)
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// drive runs the workload's clients (and loader) for d and returns
// what they measured. Untimed drives (warm-up) keep no samples and run
// no loader.
func (r *run) drive(d time.Duration, timed bool) *round {
	rd := &round{}
	askers := make([]*asker, r.w.askers)
	for i := range askers {
		askers[i] = r.newAsker()
		defer askers[i].close()
	}
	var before serverStats
	var gc0, gcCPU0, cpu0 float64
	if timed {
		before, _ = r.stats()
		gc0, gcCPU0, cpu0 = readGC()
	}

	var correct atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range askers {
		wg.Add(1)
		go func(a *asker) {
			defer wg.Done()
			for !stop.Load() {
				q := r.qs.at(int(r.next.Add(1) - 1))
				a.attempted++
				ans, lat, err := a.ask(q)
				if err != nil {
					if len(a.errs) < 5 {
						a.errs = append(a.errs, err.Error())
					}
					continue
				}
				correct.Add(1)
				if !timed {
					continue
				}
				t := &ans.Timings
				a.samples = append(a.samples, sample{
					lat: lat, bytes: int32(a.buf.Len()), cached: ans.Cached, degraded: ans.Degraded,
					tm: [10]int32{t.Queue, t.Correct, t.Annotate, t.Parse, t.Rank, t.Generate, t.Plan, t.Bind, t.Execute, t.Total},
				})
			}
		}(a)
	}
	if timed && r.w.loader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.loads, rd.loadErr = r.load(start, r.sh.batchesPerRound(), &stop)
		}()
	}

	// Slice boundaries: cumulative correct answers, CPU and bytes
	// allocated, read once a second.
	type mark struct {
		t       time.Time
		correct int64
		cpu     time.Duration
		alloc   uint64
	}
	read := func() mark {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return mark{time.Now(), correct.Load(), cpuTime(), m.TotalAlloc}
	}
	prev := read()
	for end := start.Add(d); ; {
		next := prev.t.Add(slice)
		if next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		cur := read()
		if n := float64(cur.correct - prev.correct); n > 0 && timed {
			rd.asksPerS = append(rd.asksPerS, n/cur.t.Sub(prev.t).Seconds())
			rd.cpuMS = append(rd.cpuMS, ms(cur.cpu-prev.cpu)/n)
			rd.allocKB = append(rd.allocKB, float64(cur.alloc-prev.alloc)/1024/n)
		}
		prev = cur
		if !cur.t.Before(end) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	rd.dur = time.Since(start)

	if timed {
		after, _ := r.stats()
		gc1, gcCPU1, cpu1 := readGC()
		rd.ansHits = after.AnswerCache.Hits - before.AnswerCache.Hits
		rd.ansMisses = after.AnswerCache.Misses - before.AnswerCache.Misses
		rd.planHits = after.PlanCache.Hits - before.PlanCache.Hits
		rd.planMisses = after.PlanCache.Misses - before.PlanCache.Misses
		rd.gcCycles, rd.gcCPU, rd.allCPU = gc1-gc0, gcCPU1-gcCPU0, cpu1-cpu0
	}
	for _, a := range askers {
		rd.samples = append(rd.samples, a.samples...)
		rd.attempted += a.attempted
		rd.rejected += a.rejected
		rd.uncached += a.uncached
		rd.errs = append(rd.errs, a.errs...)
	}
	rd.failed = rd.attempted - int(correct.Load())
	return rd
}

// load commits n batches on an open-loop schedule, one every
// batchEvery from start whether or not the last one is done, and times
// each from the moment it was due.
func (r *run) load(start time.Time, n int, stop *atomic.Bool) ([]loadSample, error) {
	loads := make([]loadSample, 0, n)
	for k := 0; k < n && !stop.Load(); k++ {
		due := start.Add(time.Duration(k) * batchEvery)
		time.Sleep(time.Until(due))
		began := time.Now()
		if err := r.commitBatch(); err != nil {
			return loads, err
		}
		done := time.Now()
		loads = append(loads, loadSample{late: began.Sub(due), insert: done.Sub(began), commit: done.Sub(due)})
	}
	return loads, nil
}

// commitBatch inserts the next batchRows rows of the events sequence.
func (r *run) commitBatch() error {
	lo := r.loaded * batchRows
	if lo+batchRows > len(r.data.pending) {
		return errors.New("benchmark: loader ran out of generated rows")
	}
	r.loaded++
	return r.data.db.BulkInsert("events", r.data.pending[lo:lo+batchRows])
}

// timedRound runs one timed round and holds the workload to the cache
// behaviour it was chosen for.
func (r *run) timedRound() error {
	rd := r.drive(r.sh.round, true)
	r.rounds = append(r.rounds, rd)
	if rd.loadErr != nil {
		return fmt.Errorf("%s: loader: %w", r.w.name, rd.loadErr)
	}
	if lookups := rd.ansHits + rd.ansMisses; lookups > 0 {
		share := rd.ansHits / lookups
		if share < r.w.minHit || share > r.w.maxHit {
			return fmt.Errorf("%s: answer-cache hit share %.4f is outside [%g, %g]: the workload no longer exercises what it was chosen for",
				r.w.name, share, r.w.minHit, r.w.maxHit)
		}
	}
	if rd.uncached > 0 {
		return fmt.Errorf("%s: %d answers over devices were not served from the answer cache although no batch touches devices",
			r.w.name, rd.uncached)
	}
	return nil
}
