package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control. Query execution is gated by a weighted FIFO
// semaphore sized off the engine's parallelism: a full-degree ask
// holds Parallelism units (it will fan out that many workers), a
// degraded serial ask holds one. The admission ladder for each request
// is
//
//  1. immediate full-weight acquire  -> run at full parallel degree;
//  2. bounded-wait single-unit acquire -> run degraded to serial
//     (graceful degradation: under sustained load the server trades
//     per-query speedup for admitted throughput);
//  3. queue full or wait exhausted -> 429 + Retry-After (backpressure:
//     the excess never piles onto the worker pool).
//
// The semaphore is FIFO so a burst cannot starve earlier waiters, and
// the wait spent in step 2 is reported as Timings.Queue.

var (
	// errQueueFull rejects a request when the waiter queue is at its
	// bound — admitting it could only grow an unbounded backlog.
	errQueueFull = errors.New("serve: admission queue full")

	// errQueueWait rejects a request whose bounded queue wait elapsed
	// before capacity freed up.
	errQueueWait = errors.New("serve: admission queue wait exceeded")
)

// waiter is one queued acquire: granted when ready is closed by a
// release, abandoned when its bounded wait (or request context) ends.
type waiter struct {
	n     int64
	ready chan struct{}
}

// semaphore is a weighted FIFO counting semaphore (the x/sync shape,
// reimplemented on the stdlib). Waiters are granted strictly in
// arrival order: a small request queued behind a large one waits —
// that is what keeps heavy asks from being starved forever under a
// stream of light ones.
type semaphore struct {
	size    int64
	mu      sync.Mutex
	cur     int64
	waiters []*waiter
}

func newSemaphore(size int64) *semaphore {
	return &semaphore{size: size}
}

// tryAcquire grabs n units iff they are free right now and nobody is
// queued ahead; it never blocks.
func (s *semaphore) tryAcquire(n int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 && s.cur+n <= s.size {
		s.cur += n
		return true
	}
	return false
}

// acquire grabs n units, queueing FIFO behind earlier waiters for at
// most maxWait. maxQueue bounds the waiter queue length: a request
// arriving past the bound is rejected immediately with errQueueFull
// rather than queued. Context cancellation (client gone, deadline
// past) abandons the wait with the context's cause.
func (s *semaphore) acquire(ctx context.Context, n int64, maxWait time.Duration, maxQueue int) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.cur+n <= s.size {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	if maxQueue >= 0 && len(s.waiters) >= maxQueue {
		s.mu.Unlock()
		return errQueueFull
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return nil
	case <-timer.C:
		if s.abandon(w) {
			// The grant raced the timeout: the units are already ours.
			// Under CPU starvation a granted waiter can sit runnable
			// long past its wait bound — rejecting it now would throw
			// away capacity it holds and turn an admitted request into
			// a spurious 429.
			return nil
		}
		return errQueueWait
	case <-ctx.Done():
		if s.abandon(w) {
			// Granted and dead at once: the request is over either way,
			// hand the units straight back.
			s.release(w.n)
		}
		return context.Cause(ctx)
	}
}

// abandon removes a timed-out or canceled waiter from the queue. It
// reports whether the grant won the race instead — ready closed before
// the queue lock was taken — in which case the units belong to the
// caller, who must use or release them.
func (s *semaphore) abandon(w *waiter) (granted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return false
		}
	}
	return true
}

// release returns n units and grants queued waiters in FIFO order
// while capacity lasts.
func (s *semaphore) release(n int64) {
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.mu.Unlock()
		panic("serve: semaphore released more than held")
	}
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if s.cur+w.n > s.size {
			// FIFO: the head waiter blocks everyone behind it even if a
			// later, smaller one would fit.
			break
		}
		s.cur += w.n
		s.waiters = s.waiters[1:]
		close(w.ready)
	}
	s.mu.Unlock()
}

// admission applies the ladder documented above to one request.
type admission struct {
	sem      *semaphore
	full     int64 // units of a full-degree ask (the engine's Parallelism)
	maxWait  time.Duration
	maxQueue int

	// waitEWMA tracks the observed admission queue wait (nanoseconds,
	// exponentially weighted, α = 1/8): every request that actually
	// queued folds its wait in — including rejected ones, which waited
	// the full bound. Retry-After on a 429 derives from it, so backoff
	// advice follows the queue the clients are actually experiencing
	// instead of a hardcoded constant.
	waitEWMA atomic.Int64
}

// recordWait folds one observed queue wait into the EWMA.
func (a *admission) recordWait(d time.Duration) {
	for {
		old := a.waitEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if a.waitEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterBounds clamp the advised backoff: at least 1s (the header
// is whole seconds and zero means "retry immediately", which defeats
// backpressure), at most 30s (past that the advice is stale anyway —
// load spikes drain faster than that or the operator has bigger
// problems).
const (
	minRetryAfter = 1
	maxRetryAfter = 30
)

// retryAfter estimates, in whole seconds, when a just-rejected client
// plausibly admits: the wait bound it exhausted (or would have, for a
// full-queue rejection) plus the queue wait requests are currently
// observing, rounded up and clamped. Monotone in both inputs, so
// heavier observed queueing yields proportionally later retries.
func (a *admission) retryAfter() int {
	est := a.maxWait + time.Duration(a.waitEWMA.Load())
	secs := int((est + time.Second - 1) / time.Second)
	if secs < minRetryAfter {
		return minRetryAfter
	}
	if secs > maxRetryAfter {
		return maxRetryAfter
	}
	return secs
}

// ticket is an admitted request's claim on execution capacity.
type ticket struct {
	adm      *admission
	units    int64
	degraded bool
	queue    time.Duration // time spent queued before admission
}

func (t *ticket) release() {
	if t.adm != nil {
		t.adm.sem.release(t.units)
		t.adm = nil
	}
}

// admit runs the admission ladder. The returned ticket must be
// released when the ask finishes; on error the request was never
// admitted and owes nothing.
func (a *admission) admit(ctx context.Context) (*ticket, error) {
	if a.sem.tryAcquire(a.full) {
		return &ticket{adm: a, units: a.full}, nil
	}
	start := time.Now()
	if err := a.sem.acquire(ctx, 1, a.maxWait, a.maxQueue); err != nil {
		if errors.Is(err, errQueueWait) {
			a.recordWait(time.Since(start)) // waited the full bound, then lost
		}
		return nil, err
	}
	wait := time.Since(start)
	a.recordWait(wait)
	return &ticket{adm: a, units: 1, degraded: true, queue: wait}, nil
}
