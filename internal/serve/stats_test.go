package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestStatsEndpoint pins GET /api/stats: the engine's cumulative
// answer-cache, plan-cache and segment counters plus the session
// gauge, served as JSON. The same question is asked twice so both
// sides of the answer cache are nonzero.
func TestStatsEndpoint(t *testing.T) {
	eng := core.NewEngine(dataset.University(1), core.DefaultOptions())
	s := New(eng, Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	const ask = `{"question": "how many students are in Computer Science?", "session": "stats"}`
	askJSON(t, s, ask, 200)
	askJSON(t, s, ask, 200) // identical re-ask: answer-cache hit

	req := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d (body %s)", w.Code, w.Body)
	}
	var m struct {
		AnswerCache struct{ Hits, Misses uint64 }    `json:"answer_cache"`
		PlanCache   struct{ Hits, Misses uint64 }    `json:"plan_cache"`
		Segments    struct{ Scanned, Skipped int64 } `json:"segments"`
		Sessions    struct {
			Live    int    `json:"live"`
			Evicted uint64 `json:"evicted"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("bad stats JSON: %v (%s)", err, w.Body)
	}
	if m.AnswerCache.Misses == 0 {
		t.Error("first ask did not count as an answer-cache miss")
	}
	if m.AnswerCache.Hits == 0 {
		t.Error("identical re-ask did not count as an answer-cache hit")
	}
	if m.PlanCache.Hits+m.PlanCache.Misses == 0 {
		t.Error("plan-cache counters never moved")
	}
	if m.Sessions.Live < 1 {
		t.Errorf("sessions.live = %d, want >= 1 (the asking session)", m.Sessions.Live)
	}
	// No spill directory: the segment-cache block must be absent, not
	// zero-filled.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["segment_cache"]; ok {
		t.Error("segment_cache present without a spill directory")
	}
	for _, key := range []string{"answer_cache", "plan_cache", "segments", "sessions"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats response missing %q", key)
		}
	}
}
