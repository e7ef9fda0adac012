package exec_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// heavyStmt is a join+aggregate over the scaled university data —
// enough work per ask that an in-flight cancellation lands mid-scan,
// and wide enough to parallelize (exchange workers actually spawn).
const heavyStmt = `SELECT d.name, AVG(s.gpa) FROM students s, departments d
	WHERE s.dept_id = d.dept_id AND s.gpa > 1.0 GROUP BY d.name ORDER BY d.name`

// TestRunAtCtxBackgroundMatchesRunAt: a background context adds no
// cancellation signal, a live cancelable one arms every checkpoint,
// and the two runs return the same rows — checkpoints observe, they
// never change results.
func TestRunAtCtxBackgroundMatchesRunAt(t *testing.T) {
	db := dataset.University(2)
	stmt := sql.MustParse(heavyStmt)
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := exec.Run(ctx, sn, p, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(plain, ctxed); err != nil {
		t.Fatal(err)
	}
}

// TestRunAtCtxPreCanceled: an already-canceled context fails the run
// before any iterator work, reporting the context's cause.
func TestRunAtCtxPreCanceled(t *testing.T) {
	db := dataset.University(1)
	stmt := sql.MustParse(heavyStmt)
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("request abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := exec.Run(ctx, sn, p, exec.RunOpts{}); !errors.Is(err, cause) {
		t.Fatalf("pre-canceled run returned %v, want cause %v", err, cause)
	}
}

// TestRunBoundAtCtxParCapMatchesSerial: the execution-time parallelism
// cap (the load-shed path) runs the cached parallel plan serially and
// still returns rows identical to the full-degree run.
func TestRunBoundAtCtxParCapMatchesSerial(t *testing.T) {
	db := dataset.University(4)
	stmt := sql.MustParse(heavyStmt)
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := exec.Run(context.Background(), sn, p, exec.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	shed, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(full, shed); err != nil {
		t.Fatalf("par-capped run diverged from full-degree run: %v", err)
	}
}

// TestRunBoundAtCtxArmsCancellation: arming does not depend on the
// run's options: an already-dead context aborts before iterator work
// with the context's cause, at full degree and under the serial
// load-shed cap the serving layer uses alike.
func TestRunBoundAtCtxArmsCancellation(t *testing.T) {
	db := dataset.University(1)
	stmt := sql.MustParse(heavyStmt)
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, 4)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("request abandoned (bound)")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, par := range []int{0, 1} {
		if _, err := exec.Run(ctx, sn, p, exec.RunOpts{Par: par}); !errors.Is(err, cause) {
			t.Errorf("par=%d: pre-canceled bound run returned %v, want cause %v", par, err, cause)
		}
	}
}

// TestRunAtCtxCancelMidFlight: cancelling an in-flight parallel query
// returns promptly with the context's cause and leaks no exchange
// workers — the goroutine count settles back to its pre-run level.
func TestRunAtCtxCancelMidFlight(t *testing.T) {
	db := dataset.University(8)
	stmt := sql.MustParse(heavyStmt)
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cause := errors.New("deadline exceeded (test)")

	// Many runs with cancellation staggered across the query lifetime,
	// so checkpoints are exercised at different phases (leaf scans,
	// morsel claims, group eval) rather than one lucky spot.
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancelCause(context.Background())
		go func() {
			time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
			cancel(cause)
		}()
		start := time.Now()
		_, err := exec.Run(ctx, sn, p, exec.RunOpts{})
		elapsed := time.Since(start)
		if err != nil && !errors.Is(err, cause) {
			t.Fatalf("run %d: unexpected error %v", i, err)
		}
		// A canceled run must not finish a multi-second scan: generous
		// bound, but far below what ignoring the signal would cost under
		// repetition.
		if elapsed > 2*time.Second {
			t.Fatalf("run %d: returned after %v despite cancellation", i, elapsed)
		}
		cancel(nil)
	}

	// Exchange workers are joined before open returns, so any growth
	// here is a leak. Allow the runtime a moment to retire exiting
	// goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after canceled runs",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
