package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

var (
	engOnce sync.Once
	testEng *core.Engine
)

// testEngine is one shared engine (semantic index builds are the slow
// part of setup); servers over it are cheap.
func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	engOnce.Do(func() {
		testEng = core.NewEngine(dataset.University(2), core.DefaultOptions())
	})
	return testEng
}

var (
	parEngOnce sync.Once
	parEng     *core.Engine
)

// parEngine is an engine with a fixed parallel degree of 4 regardless
// of the host's core count, so the admission ladder's full-vs-degraded
// distinction is testable on any machine.
func parEngine(t testing.TB) *core.Engine {
	t.Helper()
	parEngOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.Parallelism = 4
		parEng = core.NewEngine(dataset.University(1), opts)
	})
	return parEng
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(testEngine(t), cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func askJSON(t *testing.T, s *Server, body string, wantStatus int) map[string]any {
	t.Helper()
	w := post(s, "/api/ask", body)
	if w.Code != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", w.Code, wantStatus, w.Body)
	}
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("bad response JSON: %v (%s)", err, w.Body)
	}
	return m
}

func TestAskEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	m := askJSON(t, s, `{"question": "how many students are in Computer Science?"}`, 200)
	rows, _ := m["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want one count row", m["rows"])
	}
	row := rows[0].([]any)
	if n, _ := row[0].(float64); n != 60 { // scale 2: 30 per scale
		t.Errorf("count = %v, want 60", row[0])
	}
	if m["sql"] == "" || m["response"] == "" {
		t.Error("sql/response missing from the answer")
	}
	tm := m["timings"].(map[string]any)
	if tm["total_us"].(float64) <= 0 {
		t.Error("zero total timing")
	}
	if _, ok := tm["verbalize_us"]; !ok {
		t.Error("verbalize_us missing from the timings")
	}
}

func TestInterpretDoesNotExecute(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(s, "/api/interpret", `{"question": "students with gpa over 3.5"}`)
	if w.Code != 200 {
		t.Fatalf("status %d (body %s)", w.Code, w.Body)
	}
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["sql"] == "" {
		t.Error("interpret returned no SQL")
	}
	if _, ok := m["rows"]; ok {
		t.Error("interpret executed the query")
	}
}

func TestSessionFollowUp(t *testing.T) {
	s := newTestServer(t, Config{})
	first := askJSON(t, s, `{"question": "students in Computer Science", "session": "s1"}`, 200)
	if fu, _ := first["follow_up"].(bool); fu {
		t.Error("first turn reported as follow-up")
	}
	second := askJSON(t, s, `{"question": "only those with gpa over 3.5", "session": "s1"}`, 200)
	if fu, _ := second["follow_up"].(bool); !fu {
		t.Error("refinement not detected as follow-up")
	}
	if len(second["rows"].([]any)) >= len(first["rows"].([]any)) {
		t.Errorf("refinement did not narrow: %d -> %d rows",
			len(first["rows"].([]any)), len(second["rows"].([]any)))
	}
	// The same refinement in a different session has no context to
	// refine: it must not silently answer as if it were in s1.
	w := post(s, "/api/ask", `{"question": "only those with gpa over 3.5", "session": "s2"}`)
	if w.Code == 200 {
		var m map[string]any
		_ = json.Unmarshal(w.Body.Bytes(), &m)
		if fu, _ := m["follow_up"].(bool); fu {
			t.Error("fresh session resolved a follow-up against another session's context")
		}
	}
}

// TestFailedTurnKeepsContext: a session turn that times out answered
// nothing, so it must not become what the next fragment refines
// (regression: the turn moved the session's context when it parsed,
// and "only those with gpa over 3.5" then narrowed the instructors the
// client was never shown).
func TestFailedTurnKeepsContext(t *testing.T) {
	// Any request naming a timeout_ms is past its deadline on arrival.
	s := newTestServer(t, Config{MaxDeadline: time.Nanosecond})
	first := askJSON(t, s, `{"question": "students in Computer Science", "session": "k"}`, 200)
	askJSON(t, s, `{"question": "instructors in Physics with salary over 91234", "session": "k", "timeout_ms": 1}`, 504)

	second := askJSON(t, s, `{"question": "only those with gpa over 3.5", "session": "k"}`, 200)
	if fu, _ := second["follow_up"].(bool); !fu {
		t.Error("fragment after the failed turn not resolved as a follow-up")
	}
	if sql, _ := second["sql"].(string); !strings.Contains(sql, "students") || strings.Contains(sql, "instructors") {
		t.Errorf("fragment refined the turn that timed out: %s", sql)
	}
	if n, all := len(second["rows"].([]any)), len(first["rows"].([]any)); n == 0 || n >= all {
		t.Errorf("refinement of %d students returned %d rows", all, n)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
	}{
		{"empty question", `{"question": "  "}`},
		{"bad json", `{"question": `},
		{"out of grammar", `{"question": "colorless green ideas sleep furiously"}`},
	} {
		if w := post(s, "/api/ask", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
}

// TestDeadlineMapsTo504: a request whose deadline has passed before
// execution aborts at the executor's entry checkpoint and reports 504,
// not a generic failure.
func TestDeadlineMapsTo504(t *testing.T) {
	s := newTestServer(t, Config{DefaultDeadline: time.Nanosecond})
	w := post(s, "/api/ask", `{"question": "students with gpa over 3.9"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body)
	}
}

// TestAdmissionLadder: with all capacity held, a request first queues
// for degraded admission, then — past the bounded wait — gets 429 with
// Retry-After. Releasing capacity admits the queue FIFO.
func TestAdmissionLadder(t *testing.T) {
	par := testEngine(t).Options().Parallelism
	adm := &admission{sem: newSemaphore(int64(par)), full: int64(par),
		maxWait: 20 * time.Millisecond, maxQueue: 1}

	first, err := adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.degraded {
		t.Error("uncontended admit degraded")
	}

	// Capacity exhausted: the next admit queues, times out, 429s.
	if _, err := adm.admit(context.Background()); !errors.Is(err, errQueueWait) {
		t.Fatalf("contended admit returned %v, want queue-wait rejection", err)
	}

	// A queued admit is granted degraded once capacity frees.
	type res struct {
		tkt *ticket
		err error
	}
	ch := make(chan res, 1)
	go func() {
		tkt, err := adm.admit(context.Background())
		ch <- res{tkt, err}
	}()
	time.Sleep(5 * time.Millisecond) // let it queue
	first.release()
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.tkt.degraded {
		t.Error("post-contention admit was not degraded")
	}
	r.tkt.release()
}

// TestOverloadRejectsWith429: a burst far past capacity with a tiny
// queue bound must split into served requests and 429s — and nothing
// may hang. Capacity is held by a manual ticket while the burst
// arrives, so contention is real on any machine speed.
func TestOverloadRejectsWith429(t *testing.T) {
	s := New(parEngine(t), Config{
		Capacity:     1,
		MaxQueue:     1,
		MaxQueueWait: time.Second,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	tkt, err := s.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"question": "students with gpa over 3.%d"}`, i%8)
			codes[i] = post(s, "/api/ask", body).Code
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the burst arrive and the queue fill
	tkt.release()
	wg.Wait()
	var ok, rejected int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("request %d: unexpected status %d", i, c)
		}
	}
	if ok == 0 {
		t.Error("overload served nothing")
	}
	if rejected == 0 {
		t.Error("overload rejected nothing — backpressure never engaged")
	}
	t.Logf("overload: %d served, %d rejected", ok, rejected)
}

// TestRetryAfterHeader: a real 429 from the handler carries a
// Retry-After derived from the admission queue's wait bound — at least
// the 1-second floor, and consistent with retryAfter()'s estimate.
func TestRetryAfterHeader(t *testing.T) {
	s := newTestServer(t, Config{MaxQueueWait: time.Millisecond, MaxQueue: -1})
	release, err := s.Saturate()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	w := post(s, "/api/ask", `{"question": "how many students"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", w.Code, w.Body)
	}
	got := w.Header().Get("Retry-After")
	if got == "" {
		t.Fatal("429 without Retry-After")
	}
	secs, err := strconv.Atoi(got)
	if err != nil || secs < minRetryAfter || secs > maxRetryAfter {
		t.Errorf("Retry-After = %q, want integer seconds in [%d, %d]",
			got, minRetryAfter, maxRetryAfter)
	}
	if want := s.adm.retryAfter(); secs != want {
		t.Errorf("Retry-After = %d, want the admission-derived %d", secs, want)
	}
}

// TestRetryAfterProportional: the advice grows with the configured
// wait bound and with the queue waits requests actually observed — the
// derivation, not a constant.
func TestRetryAfterProportional(t *testing.T) {
	a := &admission{maxWait: 100 * time.Millisecond}
	if got := a.retryAfter(); got != 1 {
		t.Errorf("idle queue: Retry-After = %d, want the 1s floor", got)
	}

	// Requests have been observing multi-second queue waits: the
	// estimate follows them upward.
	a.recordWait(5 * time.Second)
	slow := a.retryAfter()
	if slow < 5 {
		t.Errorf("after 5s observed waits: Retry-After = %d, want >= 5", slow)
	}

	// A larger wait bound alone also raises the advice.
	b := &admission{maxWait: 3 * time.Second}
	if got := b.retryAfter(); got < 3 {
		t.Errorf("3s wait bound: Retry-After = %d, want >= 3", got)
	}

	// The clamp keeps pathological estimates bounded.
	c := &admission{maxWait: time.Minute}
	c.recordWait(10 * time.Minute)
	if got := c.retryAfter(); got != maxRetryAfter {
		t.Errorf("pathological queue: Retry-After = %d, want the %d cap", got, maxRetryAfter)
	}
}

// TestOversizedBodyIs413: a body past maxBody is rejected up front
// with 413 and a message naming the bound — not silently truncated
// into a confusing 400 JSON parse error.
func TestOversizedBodyIs413(t *testing.T) {
	s := newTestServer(t, Config{})
	big := fmt.Sprintf(`{"question": %q}`, strings.Repeat("x", maxBody))
	w := post(s, "/api/ask", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %.120s)", w.Code, w.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	msg, _ := m["error"].(string)
	if !strings.Contains(msg, "exceeds") {
		t.Errorf("413 error %q does not explain the size bound", msg)
	}

	// A body that exactly fits the bound is still parsed normally.
	exact := fmt.Sprintf(`{"question": "how many students%s"}`, strings.Repeat(" ", maxBody-33))
	if len(exact) != maxBody {
		t.Fatalf("fixture sizing: %d != %d", len(exact), maxBody)
	}
	if w := post(s, "/api/ask", exact); w.Code == http.StatusRequestEntityTooLarge {
		t.Errorf("exact-size body rejected with 413 (body %.120s)", w.Body.String())
	}
}

// TestGracefulShutdown: draining refuses new requests with 503, waits
// for in-flight ones, and reports clean completion.
func TestGracefulShutdown(t *testing.T) {
	s := New(testEngine(t), Config{})
	askJSON(t, s, `{"question": "how many students"}`, 200)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown returned %v", err)
	}
	if w := post(s, "/api/ask", `{"question": "how many students"}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown ask: status %d, want 503", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown healthz: status %d, want 503", w.Code)
	}
	if live, _ := s.Stats(); live != 0 {
		t.Errorf("%d sessions survived shutdown", live)
	}
}

// TestShutdownCancelsStragglers: a Shutdown whose drain deadline
// passes cancels the base context with the draining cause, so
// in-flight work observes it at the next checkpoint.
func TestShutdownCancelsStragglers(t *testing.T) {
	s := New(testEngine(t), Config{})
	s.inflight.Add(1) // a straggler that will not finish on its own
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()

	select {
	case <-s.base.Done():
		if cause := context.Cause(s.base); !errors.Is(cause, errDraining) {
			t.Errorf("base canceled with %v, want draining cause", cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain deadline did not cancel the base context")
	}
	s.inflight.Done() // the cancellation "freed" the straggler
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("forced drain returned %v, want deadline error", err)
	}
}

// TestShutdownUnderFire: shutdown while a barrage of asks is in
// flight. Every request must complete with a definite status — the
// zero-hung-requests property — and the server must settle.
func TestShutdownUnderFire(t *testing.T) {
	s := New(testEngine(t), Config{})
	const n = 32
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"question": "students with gpa over 3.%d", "session": "fire-%d"}`, i%6, i%8)
			codes[i] = post(s, "/api/ask", body).Code
		}(i)
	}
	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	wg.Wait() // hangs here if any request never resolved
	for i, c := range codes {
		switch c {
		case http.StatusOK, http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
		default:
			t.Errorf("request %d: unexpected status %d", i, c)
		}
	}
}

// TestDegradedReporting: an ask admitted on the degraded rung reports
// Degraded plus its queue wait, and the answer cache never leaks one
// ask's degraded verdict into another ask's answer.
func TestDegradedReporting(t *testing.T) {
	// An engine of its own: on the shared parEngine a second -count
	// iteration finds the question in the answer cache, and a hit is
	// (rightly) never degraded.
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	eng := core.NewEngine(dataset.University(1), opts)
	s := New(eng, Config{Capacity: 1, MaxQueue: 4, MaxQueueWait: 2 * time.Second})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	// Hold all capacity so the next ask takes the degraded rung.
	tkt, err := s.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		tkt.release()
		close(release)
	}()
	m := askJSON(t, s, `{"question": "students with gpa over 3.85"}`, 200)
	<-release
	if d, _ := m["degraded"].(bool); !d {
		t.Fatal("queued ask did not report degraded execution")
	}
	tm := m["timings"].(map[string]any)
	if tm["queue_us"].(float64) <= 0 {
		t.Error("degraded ask reported no queue wait")
	}

	// The same question served from the answer cache at full capacity
	// must not inherit the degraded flag.
	m = askJSON(t, s, `{"question": "students with gpa over 3.85"}`, 200)
	if d, _ := m["degraded"].(bool); d {
		t.Error("cache hit leaked the degraded flag")
	}
	if c, _ := m["cached"].(bool); !c {
		t.Error("repeat ask missed the answer cache")
	}
}
