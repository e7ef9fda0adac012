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
	benchmarkAskHot(b, "how many students are in Computer Science?", "")
}

// BenchmarkServeAskHotSession is the same hit asked inside a session.
// A conversation turn runs the engine's one ask pipeline, so its
// answer-cache lookup comes before any parsing exactly as a sessionless
// ask's does: the baseline is BenchmarkServeAskHot's plus the session
// field coming in and going out, and nothing else. A turn that
// annotates, parses and ranks before it looks the cache up costs about
// 490 allocations more and shows here and nowhere else.
func BenchmarkServeAskHotSession(b *testing.B) {
	benchmarkAskHot(b, "how many students are in Computer Science?", "b")
}

// BenchmarkServeAskHotRows is the same hit with a 56-row answer. What
// a second-or-later hit allocates must not follow the size of its
// result — the rows and their encoding belong to the cache entry — so
// this benchmark's baseline sits a recorder's body buffer above
// BenchmarkServeAskHot's and no further; a per-row copy or re-encoding
// on the hit path shows here and nowhere else.
func BenchmarkServeAskHotRows(b *testing.B) {
	benchmarkAskHot(b, "students with gpa over 3.5", "")
}

func benchmarkAskHot(b *testing.B, question, session string) {
	s := New(testEngine(b), Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	body := askBody(question, session)
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
