package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The session-layer race battery. These tests are written to fail
// under -race when any of the session table's invariants is protected
// by luck instead of a lock: CI runs this package with the race
// detector on.

// loose widens admission far past what the battery's bursts need: the
// tests here exercise the session table, and a 429 from the admission
// ladder (easy to hit under the race detector's slowdown) would only
// obscure that.
func loose(cfg Config) Config {
	cfg.Capacity = 256
	cfg.MaxQueue = 256
	cfg.MaxQueueWait = 10 * time.Second
	cfg.DefaultDeadline = 30 * time.Second
	return cfg
}

// TestConcurrentAsksSameSession: many goroutines asking on one session
// at once. The conversation serializes turns internally; every ask
// must complete with a definite answer and the session must count
// every turn.
func TestConcurrentAsksSameSession(t *testing.T) {
	s := newTestServer(t, loose(Config{}))
	const workers, asks = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				body := fmt.Sprintf(`{"question": "students with gpa over 3.%d", "session": "shared"}`, (w+i)%8)
				if code := post(s, "/api/ask", body).Code; code != 200 {
					t.Errorf("worker %d ask %d: status %d", w, i, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if live, _ := s.sessions.stats(); live != 1 {
		t.Errorf("one shared session, table holds %d", live)
	}
}

// TestEvictionRacesInFlightAsk: TTL sweeps run concurrently with asks
// on the sessions being evicted. An evicted session's in-flight turn
// finishes on the unlinked conversation — no ask may fail or hang
// because the janitor got there first.
func TestEvictionRacesInFlightAsk(t *testing.T) {
	s := newTestServer(t, loose(Config{SessionTTL: time.Nanosecond, SweepEvery: time.Hour}))
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.sessions.sweep(time.Now())
			}
		}
	}()
	const workers, asks = 6, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				body := fmt.Sprintf(`{"question": "students with gpa over 3.%d", "session": "evict-%d"}`, i%8, w)
				if code := post(s, "/api/ask", body).Code; code != 200 {
					t.Errorf("worker %d ask %d: status %d", w, i, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()
}

// TestSessionBoundUnderChurn: far more distinct session IDs than the
// bound, created concurrently. The table must never exceed its cap and
// every ask still answers (over a fresh context after eviction).
func TestSessionBoundUnderChurn(t *testing.T) {
	const bound = 8
	s := newTestServer(t, loose(Config{MaxSessions: bound}))
	const workers, asks = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				body := fmt.Sprintf(`{"question": "how many students", "session": "churn-%d-%d"}`, w, i)
				if code := post(s, "/api/ask", body).Code; code != 200 {
					t.Errorf("worker %d ask %d: status %d", w, i, code)
					return
				}
				if live, _ := s.sessions.stats(); live > bound {
					t.Errorf("session table grew to %d, bound %d", live, bound)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	live, evicted := s.sessions.stats()
	if live > bound {
		t.Errorf("final session count %d exceeds bound %d", live, bound)
	}
	if evicted == 0 {
		t.Error("churn past the bound evicted nothing")
	}
}

// TestTTLReplacesExpiredSessionOnTouch: a session idle past the TTL is
// replaced on its next use even before a sweep — the client gets a
// fresh context, never a zombie one.
func TestTTLReplacesExpiredSessionOnTouch(t *testing.T) {
	tbl := newSessionTable(testEngine(t), 10*time.Millisecond, 8)
	c1, existed := tbl.get("a")
	if existed {
		t.Fatal("first get reported an existing session")
	}
	if c2, existed := tbl.get("a"); !existed || c2 != c1 {
		t.Fatal("immediate second get did not return the live session")
	}
	time.Sleep(20 * time.Millisecond)
	c3, existed := tbl.get("a")
	if existed {
		t.Error("expired session reported as existing")
	}
	if c3 == c1 {
		t.Error("expired session was resumed instead of replaced")
	}
	if _, evicted := tbl.stats(); evicted != 1 {
		t.Errorf("evicted = %d, want 1", evicted)
	}
}

// TestServeNoGoroutineLeak: a served burst (including canceled and
// rejected requests) leaves no goroutines behind once the server
// shuts down, as TestOverloadBurstMeetsDeadline also requires.
func TestServeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(parEngine(t), Config{Capacity: 2, MaxQueue: 2, MaxQueueWait: 5 * time.Millisecond,
		DefaultDeadline: 50 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"question": "students with gpa over 3.%d", "session": "leak-%d"}`, i%8, i%4)
			post(s, "/api/ask", body)
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after serve burst + shutdown",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
