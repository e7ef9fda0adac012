// Package serve is the production front door of the engine: an
// HTTP/JSON API over core.Engine with the robustness machinery a
// shared deployment needs — per-request deadlines propagated down to
// the executor's iterator loops, admission control with bounded
// queueing and 429 backpressure, graceful degradation of parallel
// plans to serial execution under sustained load, session-scoped
// conversation state with TTL and count bounds, and a draining
// shutdown that cancels stragglers instead of abandoning them.
//
// Endpoints:
//
//	POST /api/ask        {"question": ..., "session"?: ..., "timeout_ms"?: ...}
//	POST /api/interpret  {"question": ...}
//	GET  /healthz
//
// Asks with a session ID share that session's dialogue context
// (follow-ups resolve against it, and only an answered turn moves it: a
// 400, 499, 503 or 504 leaves the session where the client last saw
// it); asks without one are stateless.
// Every ask pins one store snapshot for its whole pipeline, so answers
// are computed over a single consistent data version no matter what
// writers do meanwhile.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// StatusClientClosedRequest is the non-standard 499 (nginx convention)
// reported when the client disconnected before its answer was ready.
const StatusClientClosedRequest = 499

var (
	// errDeadline is the cancellation cause of a request that exhausted
	// its (client-requested or default) deadline: mapped to 504.
	errDeadline = errors.New("serve: request deadline exceeded")

	// errDraining is the cancellation cause of an in-flight request the
	// shutdown drain deadline caught: mapped to 503.
	errDraining = errors.New("serve: server shutting down")
)

// Config sizes the server around one engine. Zero values resolve to
// defaults derived from the engine's Parallelism.
type Config struct {
	// DefaultDeadline bounds a request that names no timeout_ms;
	// MaxDeadline caps what a client may request. Defaults: 2s / 10s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// Capacity is the admission semaphore size in worker units
	// (default 2 × Parallelism: one full-degree ask running, one
	// admitted behind it or several degraded ones interleaving).
	Capacity int

	// MaxQueueWait bounds how long a request may queue for degraded
	// admission before 429 (default 100ms); MaxQueue bounds how many
	// may queue at once (default 4 × Parallelism).
	MaxQueueWait time.Duration
	MaxQueue     int

	// SessionTTL evicts idle sessions (default 15m); MaxSessions caps
	// live sessions, evicting LRU past it (default 4096).
	SessionTTL  time.Duration
	MaxSessions int

	// SweepEvery is the session janitor period (default SessionTTL/4).
	SweepEvery time.Duration
}

func (c Config) withDefaults(par int) Config {
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 10 * time.Second
	}
	if c.Capacity == 0 {
		c.Capacity = 2 * par
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = 100 * time.Millisecond
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * par
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 4096
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = c.SessionTTL / 4
	}
	return c
}

// Server is the HTTP front door. It is an http.Handler; transport
// concerns (listeners, TLS) belong to the caller (see cmd/nliserver).
type Server struct {
	eng      *core.Engine
	cfg      Config
	adm      *admission
	sessions *sessionTable
	mux      *http.ServeMux

	// base is canceled (cause errDraining) when the shutdown drain
	// deadline passes: every in-flight request context is attached to
	// it, so stragglers abort at their next iterator checkpoint.
	//nlivet:ignore ctxfirst server-lifetime base context, canceled only at shutdown — request contexts still flow through calls
	base       context.Context
	cancelBase context.CancelCauseFunc

	// drainMu orders every inflight.Add before Shutdown's Wait, as
	// sync.WaitGroup requires of an Add that may find the counter at
	// zero: begin adds under the read lock, Shutdown sets draining
	// under the write lock.
	drainMu   sync.RWMutex
	draining  atomic.Bool
	inflight  sync.WaitGroup
	janitorCh chan struct{} // closed to stop the janitor
	jDone     chan struct{} // closed when the janitor exited
}

// New builds a server over eng.
func New(eng *core.Engine, cfg Config) *Server {
	par := eng.Options().Parallelism
	cfg = cfg.withDefaults(par)
	base, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		eng: eng,
		cfg: cfg,
		adm: &admission{
			sem:      newSemaphore(int64(cfg.Capacity)),
			full:     int64(par),
			maxWait:  cfg.MaxQueueWait,
			maxQueue: cfg.MaxQueue,
		},
		sessions:   newSessionTable(eng, cfg.SessionTTL, cfg.MaxSessions),
		mux:        http.NewServeMux(),
		base:       base,
		cancelBase: cancel,
		janitorCh:  make(chan struct{}),
		jDone:      make(chan struct{}),
	}
	s.mux.HandleFunc("POST /api/ask", s.handleAsk)
	s.mux.HandleFunc("POST /api/interpret", s.handleInterpret)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	go s.janitor()
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// janitor sweeps idle sessions until shutdown.
func (s *Server) janitor() {
	defer close(s.jDone)
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sessions.sweep(now)
		case <-s.janitorCh:
			return
		}
	}
}

// Shutdown drains the server: new requests get 503 immediately,
// in-flight requests run to completion until ctx expires, stragglers
// are then canceled (they observe errDraining at their next iterator
// checkpoint and return 503), and sessions are purged. Returns nil if
// everything drained before the deadline, ctx's error otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	stop := context.AfterFunc(ctx, func() { s.cancelBase(errDraining) })
	defer stop()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		<-done // cancellation unblocks the stragglers promptly
	}
	s.cancelBase(errDraining) // idempotent; frees the AfterFunc timer path
	close(s.janitorCh)
	<-s.jDone
	s.sessions.purge()
	return err
}

// askRequest is the wire form of POST /api/ask and /api/interpret.
type askRequest struct {
	Question string `json:"question"`
	Session  string `json:"session,omitempty"`
	// TimeoutMS bounds this ask (capped by MaxDeadline); 0 means the
	// server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// errorResponse is the wire form of every non-2xx outcome.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON sends the small fixed-shape bodies — errors, /healthz,
// /api/stats. Answers go through writeAnswer (encode.go).
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeTooBusy is the 429 path: the Retry-After advice is derived from
// the admission queue's wait bound and the queue waits requests are
// currently observing (see admission.retryAfter), not a hardcoded
// constant — clients back off proportionally to the actual congestion.
func (s *Server) writeTooBusy(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfter()))
	writeError(w, http.StatusTooManyRequests, err)
}

// maxBody bounds a request body: questions are sentences, not
// payloads.
const maxBody = 1 << 16

func (s *Server) decode(w http.ResponseWriter, r *http.Request) (*askRequest, bool) {
	var req askRequest
	// The body is read into a pooled buffer; json.Unmarshal copies the
	// strings it keeps, so the buffer goes back as soon as it returns.
	p := getBuf()
	defer putBuf(p)
	body, err := readBody(r.Body, *p)
	*p = body
	if err == nil && len(body) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: request body exceeds %d bytes", maxBody))
		return nil, false
	}
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return nil, false
	}
	if strings.TrimSpace(req.Question) == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty question"))
		return nil, false
	}
	return &req, true
}

// readBody appends r to buf until EOF or one byte past maxBody,
// whichever comes first. Reading one byte past the bound makes an
// oversized body distinguishable from one that exactly fits: stopping
// at maxBody would silently truncate and surface as a baffling JSON
// syntax error instead of the real problem.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for len(buf) <= maxBody {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxBody+1)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// requestCtx derives the execution context of one ask: the HTTP
// request context (canceled on client disconnect), attached to the
// server's base context (canceled at the shutdown drain deadline),
// bounded by the request's deadline. The contexts only flow downward
// through calls — nothing retains them past the request.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	deadline := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		deadline = time.Duration(timeoutMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithCancelCause(r.Context())
	stop := context.AfterFunc(s.base, func() { cancel(errDraining) })
	dctx, dcancel := context.WithTimeoutCause(ctx, deadline, errDeadline)
	return dctx, func() {
		dcancel()
		stop()
		cancel(nil)
	}
}

// statusOf maps an ask error to its HTTP status. Cancellation causes
// take precedence: a pipeline error surfaced because the request was
// already dead is reported as the death, not the symptom.
func statusOf(ctx context.Context, err error) int {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(err, errDeadline) || errors.Is(cause, errDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, errDraining) || errors.Is(cause, errDraining):
		return http.StatusServiceUnavailable
	case ctx.Err() != nil:
		// The request context died for neither deadline nor drain:
		// the client went away.
		return StatusClientClosedRequest
	default:
		// The pipeline itself refused the question (outside the
		// grammar, no interpretation over the schema, ...).
		return http.StatusBadRequest
	}
}

// statsResponse is the wire form of GET /api/stats: the engine's
// cumulative cache and scan counters, for dashboards and the
// experiment harnesses. Every counter is monotonic since engine start;
// sessions.live, the one gauge, is the number of sessions alive now.
// reading_cache counts complete-question reads: hits were bound from a
// cached shape, misses parsed (core.Engine.ReadingCacheStats).
type statsResponse struct {
	AnswerCache  cacheStatsJSON   `json:"answer_cache"`
	PlanCache    cacheStatsJSON   `json:"plan_cache"`
	ReadingCache cacheStatsJSON   `json:"reading_cache"`
	Segments     scanStatsJSON    `json:"segments"`
	Sessions     sessionStatsJSON `json:"sessions"`
}

type cacheStatsJSON struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

type scanStatsJSON struct {
	Scanned int64 `json:"scanned"`
	Skipped int64 `json:"skipped"`
}

type sessionStatsJSON struct {
	Live    int    `json:"live"`
	Evicted uint64 `json:"evicted"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var resp statsResponse
	resp.AnswerCache.Hits, resp.AnswerCache.Misses = s.eng.AnswerCacheStats()
	resp.PlanCache.Hits, resp.PlanCache.Misses = s.eng.PlanCacheStats()
	resp.ReadingCache.Hits, resp.ReadingCache.Misses = s.eng.ReadingCacheStats()
	resp.Segments.Scanned, resp.Segments.Skipped = s.eng.SegmentStats()
	resp.Sessions.Live, resp.Sessions.Evicted = s.sessions.stats()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// begin registers one in-flight request, refusing it when draining.
// Checking and adding under drainMu pairs with Shutdown's store under
// the write lock, so no request slips past the drain untracked.
func (s *Server) begin(w http.ResponseWriter) bool {
	s.drainMu.RLock()
	ok := !s.draining.Load()
	if ok {
		s.inflight.Add(1)
	}
	s.drainMu.RUnlock()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, errDraining)
	}
	return ok
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	if !s.begin(w) {
		return
	}
	defer s.inflight.Done()
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	// Admission: full degree if capacity is free right now, degraded
	// to serial after a bounded queue wait, 429 past the bound.
	tkt, err := s.adm.admit(ctx)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull) || errors.Is(err, errQueueWait):
			s.writeTooBusy(w, err)
		default:
			writeError(w, statusOf(ctx, err), err)
		}
		return
	}
	defer tkt.release()

	execPar := 0
	if tkt.degraded {
		execPar = 1
	}

	var ans *core.Answer
	var followUp bool
	if req.Session != "" {
		conv, _ := s.sessions.get(req.Session)
		ans, followUp, err = conv.Ask(ctx, req.Question, execPar)
	} else {
		ans, err = s.eng.Ask(ctx, req.Question, execPar)
	}
	if err != nil {
		writeError(w, statusOf(ctx, err), err)
		return
	}
	ans.Timings.Queue = tkt.queue
	writeAnswer(w, ans, req.Session, followUp)
}

func (s *Server) handleInterpret(w http.ResponseWriter, r *http.Request) {
	if !s.begin(w) {
		return
	}
	defer s.inflight.Done()
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	// Interpretation runs no query: no admission ticket, no snapshot —
	// just the linguistic pipeline up to SQL.
	ans, err := s.eng.Interpret(req.Question)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeAnswer(w, ans, "", false)
}
