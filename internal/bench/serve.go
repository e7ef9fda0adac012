package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// F10: the serving layer under overload. A burst of concurrent clients
// far past admission capacity drives the HTTP front door
// (internal/serve), asserting the robustness bars: admitted requests
// stay under the deadline, the excess is rejected with 429 (never
// queued unboundedly, never hung), and the run leaks no goroutines.
// Sustained closed-loop latency is not measured here: the question
// benchmark's ask_repeat workload records it.
//
// Requests go through serve.Server.ServeHTTP directly (full handler
// path: decode, admission, deadline context, execution, JSON encode)
// without a TCP listener, so the numbers isolate the serving layer
// from kernel socket behavior.

const (
	// F10Deadline is the per-request deadline the server enforces —
	// the experiment's latency bar.
	F10Deadline = time.Second
	// F10AsksPerClient is how many asks each burst client issues.
	F10AsksPerClient = 32
)

// F10Result is the overload burst's outcome.
type F10Result struct {
	Clients  int // concurrent clients in the burst
	Asks     int // total requests issued
	Served   int // 200s
	Rejected int // 429s
	Timeout  int // 504s
	Errors   int // anything else (bar: zero)
	Degraded int // answers reporting degraded (serial) execution
	Cached   int // answers served from the answer cache
	// P50 and P99 cover the admitted (200) requests only — the bar is
	// that backpressure protects the admitted, not that rejects are
	// fast (they are).
	P50 time.Duration
	P99 time.Duration
	QPS float64 // completed requests per second of wall time

	// GoroutineGrowth is the post-run goroutine count minus the
	// pre-run count after shutdown settled (bar: ~0, small slack for
	// runtime background goroutines).
	GoroutineGrowth int
}

// doAsk issues one request through the handler and reports status,
// latency and the answer's cached/degraded flags.
func doAsk(s *serve.Server, session, question string) (code int, d time.Duration, cached, degraded bool) {
	body := fmt.Sprintf(`{"question": %q, "session": %q}`, question, session)
	req := httptest.NewRequest(http.MethodPost, "/api/ask", strings.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(w, req)
	d = time.Since(start)
	if w.Code == http.StatusOK {
		var m struct {
			Cached   bool `json:"cached"`
			Degraded bool `json:"degraded"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &m)
		cached, degraded = m.Cached, m.Degraded
	}
	return w.Code, d, cached, degraded
}

// percentiles returns the nearest-rank p50 and p99 of ds: the
// ceil(q·n)-th smallest sample, so below 100 samples p99 is the
// slowest one.
func percentiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := func(pct int) time.Duration {
		return sorted[(pct*len(sorted)+99)/100-1]
	}
	return rank(50), rank(99)
}

// RunF10 runs the overload burst against a university database at the
// given scale.
func RunF10(scale int) (*F10Result, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("bench: F10 needs a positive scale")
	}
	db := dataset.University(scale)
	opts := core.DefaultOptions()
	if opts.Parallelism < 2 {
		// The degradation ladder needs a parallel degree to shed from,
		// even on single-core CI runners.
		opts.Parallelism = 2
	}
	eng := core.NewEngine(db, opts)
	before := runtime.NumGoroutine()

	// A tightly-sized server and a burst 8× past capacity.
	// Backpressure must reject the excess with 429 while the admitted
	// stay under the deadline. The burst arrives while the server's
	// capacity is saturated (serve.Saturate) — without that, queries
	// fast enough to finish inside a scheduler quantum would never
	// overlap on a small machine and the ladder would never engage;
	// holding the capacity down for a few queue-wait periods forces
	// every concurrent client through the reject path exactly as a
	// genuinely slow backlog would.
	tight := serve.New(eng, serve.Config{
		DefaultDeadline: F10Deadline,
		Capacity:        opts.Parallelism,
		MaxQueue:        opts.Parallelism,
		MaxQueueWait:    10 * time.Millisecond,
	})
	release, err := tight.Saturate()
	if err != nil {
		return nil, err
	}
	hold := time.AfterFunc(50*time.Millisecond, release)
	defer hold.Stop()
	var questions []string
	for _, g := range []string{"2.1", "2.3", "2.5", "2.7", "2.9", "3.1", "3.3", "3.5", "3.7", "3.9"} {
		questions = append(questions, "students with gpa over "+g)
	}
	res := &F10Result{Clients: 8 * opts.Parallelism}
	var admitted []time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < res.Clients; c++ {
		wg.Add(1)
		go func(session string) {
			defer wg.Done()
			for i := 0; i < F10AsksPerClient; i++ {
				code, d, cached, degraded := doAsk(tight, session, questions[i%len(questions)])
				if code == http.StatusTooManyRequests {
					// A well-behaved client honors backpressure: back off
					// before retrying the next ask. This also keeps the
					// burst alive past the saturation window so the
					// scenario measures both halves — rejection under
					// overload and admission once capacity frees.
					time.Sleep(20 * time.Millisecond)
				}
				mu.Lock()
				res.Asks++
				switch code {
				case http.StatusOK:
					res.Served++
					admitted = append(admitted, d)
					if cached {
						res.Cached++
					}
					if degraded {
						res.Degraded++
					}
				case http.StatusTooManyRequests:
					res.Rejected++
				case http.StatusGatewayTimeout:
					res.Timeout++
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("f10-%d", c))
	}
	wg.Wait()
	if wall := time.Since(start); wall > 0 {
		res.QPS = float64(res.Asks) / wall.Seconds()
	}
	res.P50, res.P99 = percentiles(admitted)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tight.Shutdown(ctx); err != nil {
		return nil, err
	}

	// Leak audit: give the runtime a moment to retire exited workers,
	// then compare against the pre-run count.
	res.GoroutineGrowth = runtime.NumGoroutine() - before
	for end := time.Now().Add(2 * time.Second); res.GoroutineGrowth > 2 && time.Now().Before(end); {
		time.Sleep(20 * time.Millisecond)
		res.GoroutineGrowth = runtime.NumGoroutine() - before
	}
	return res, nil
}
