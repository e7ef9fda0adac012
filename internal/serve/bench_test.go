package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkServeAskHot is the per-request hot path: a question whose
// answer sits in the engine's answer cache, served through the full
// HTTP handler — decode, admission, cache hit, JSON encode. The
// allocguard CI gate pins this benchmark's allocation count, so
// regressions in the front door's per-request overhead fail the build.
func BenchmarkServeAskHot(b *testing.B) {
	benchmarkAskHot(b, "how many students are in Computer Science?")
}

// BenchmarkServeAskHotRows is the same hit with a 56-row answer. What
// a second-or-later hit allocates must not follow the size of its
// result — the rows and their encoding belong to the cache entry — so
// this benchmark's baseline sits a recorder's body buffer above
// BenchmarkServeAskHot's and no further; a per-row copy or re-encoding
// on the hit path shows here and nowhere else.
func BenchmarkServeAskHotRows(b *testing.B) {
	benchmarkAskHot(b, "students with gpa over 3.5")
}

func benchmarkAskHot(b *testing.B, question string) {
	s := New(testEngine(b), Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	body := `{"question": "` + question + `"}`
	warm := post(s, "/api/ask", body)
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", warm.Code, warm.Body)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/api/ask", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
