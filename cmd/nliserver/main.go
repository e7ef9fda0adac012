// Command nliserver serves the natural language interface over
// HTTP/JSON — the production front door (internal/serve): admission
// control with 429 backpressure, per-request deadlines propagated into
// the executor, graceful degradation of parallel plans under load,
// session-scoped conversations with TTL eviction, and a draining
// shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	nliserver [-addr :8080] [-dataset university] [-scale 4]
//	          [-deadline 2s] [-session-ttl 15m] [-drain 5s]
//	          [-spill-dir /var/lib/nli/segments] [-cache 256]
//
// With -spill-dir set, sealed columnar segments are serialized to disk
// and a byte-budgeted read-through cache (-cache, MiB) bounds resident
// segment memory; zone maps stay resident so selective scans prune
// evicted segments without I/O (DESIGN.md § 2.12).
//
// Endpoints:
//
//	POST /api/ask        {"question": "...", "session": "...", "timeout_ms": 0}
//	POST /api/interpret  {"question": "..."}
//	GET  /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	nli "repro"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nliserver:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	datasetName := flag.String("dataset", "university", "dataset to load: university, geo or sales")
	scale := flag.Int("scale", 4, "dataset scale factor")
	deadline := flag.Duration("deadline", 2*time.Second, "default per-request deadline")
	sessionTTL := flag.Duration("session-ttl", 15*time.Minute, "idle session eviction TTL")
	maxSessions := flag.Int("max-sessions", 4096, "live session bound (LRU eviction past it)")
	drain := flag.Duration("drain", 5*time.Second, "shutdown drain deadline before stragglers are canceled")
	spillDir := flag.String("spill-dir", "", "directory for on-disk segment spill (empty = fully in-memory)")
	cacheMB := flag.Int64("cache", 256, "segment-cache byte budget in MiB when -spill-dir is set")
	flag.Parse()

	db, err := nli.Dataset(*datasetName, *scale)
	if err != nil {
		return err
	}
	opts := nli.DefaultOptions()
	opts.SpillDir = *spillDir
	opts.SegCacheBytes = *cacheMB << 20
	eng := nli.New(db, opts)
	srv := serve.New(eng, serve.Config{
		DefaultDeadline: *deadline,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("nliserver: serving %q (scale %d, %d rows) on %s\n",
		*datasetName, *scale, eng.DB.TotalRows(), *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("nliserver: %v — draining (up to %v)\n", sig, *drain)
	}

	// Drain: the serve layer refuses new work and cancels stragglers at
	// the deadline; the http server then closes idle connections.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Printf("nliserver: drain deadline hit, stragglers canceled (%v)\n", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		hs.Close()
	}
	fmt.Println("nliserver: shutdown complete")
	return nil
}
