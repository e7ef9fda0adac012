package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// SegCache is the read-through segment cache that turns memory into a
// cache over spilled segments rather than a capacity limit. A
// spill-enabled DB adopts every sealed segment as it is published:
// adoption serializes the segment write-once to the spill directory
// (sealed segments are immutable, so the file never needs rewriting)
// and registers the resident payload against the cache's byte budget.
// When the budget overflows, a CLOCK second-chance sweep drops payload
// pointers — only the encoded columns leave; the segment's zone maps
// stay resident on the Segment identity so planner skip-sets keep
// pruning evicted segments without any I/O. A scan that needs an
// evicted payload faults it back in through Segment.Cols, with
// singleflight collapsing concurrent faults of the same segment and
// the serving layer's cancellation signal able to abandon the wait.
//
// Eviction needs no pinning protocol: payloads are immutable Go
// objects, so an in-flight reader that already holds the columns keeps
// them alive; eviction merely drops the cache's reference so the
// garbage collector can reclaim them once the last reader finishes.
type SegCache struct {
	dir    string
	budget int64

	mu       sync.Mutex
	ring     []*Segment // resident, evictable segments in CLOCK order
	hand     int
	used     int64 // sum of ring members' payload bytes
	inflight map[uint64]*segFlight
	nextID   uint64

	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	faultBytes   atomic.Int64
	spilledSegs  atomic.Int64
	spilledBytes atomic.Int64
	spillErrs    atomic.Int64
	faultErrs    atomic.Int64
}

// segFlight is one in-progress fault-in; concurrent faulters of the
// same segment wait on done instead of issuing duplicate reads.
type segFlight struct {
	done chan struct{}
	cols []*SegCol
	err  error
}

// errSegFaultCanceled reports a fault-in wait abandoned because the
// caller's cancellation signal fired first.
var errSegFaultCanceled = errors.New("store: segment fault-in canceled")

// DefaultSegCacheBytes is the byte budget used when none is given.
const DefaultSegCacheBytes = 256 << 20

// NewSegCache creates a segment cache spilling into dir with the given
// payload byte budget (DefaultSegCacheBytes when budget <= 0).
func NewSegCache(dir string, budget int64) (*SegCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: segment cache: %w", err)
	}
	if budget <= 0 {
		budget = DefaultSegCacheBytes
	}
	return &SegCache{
		dir:      dir,
		budget:   budget,
		inflight: make(map[uint64]*segFlight),
	}, nil
}

func (c *SegCache) path(id uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("seg-%08x.nlsg", id))
}

// adopt takes ownership of every sealed, not-yet-adopted segment in the
// set. Unsealed tails grow in place until they seal and never spill.
func (c *SegCache) adopt(ss *SegSet) {
	for _, s := range ss.Segs {
		if s.Sealed && s.src.Load() == nil {
			c.adoptOne(s)
		}
	}
}

// adoptOne claims the segment's spill identity and writes its on-disk
// copy. The CompareAndSwap makes exactly one adopter the writer of the
// file, however many snapshots publish the same shared segment
// concurrently. If the write fails the claim stands but the segment is
// never registered with the eviction ring, so its payload stays
// memory-only forever — correctness degrades to the memory-only store,
// not to data loss.
func (c *SegCache) adoptOne(s *Segment) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	if !s.src.CompareAndSwap(nil, &segSrc{id: id, c: c}) {
		return // another adopter won; it owns the file write
	}
	cols := s.Resident()
	if cols == nil {
		// Unreachable by construction: adoption happens before the
		// segment is ever eligible for eviction.
		c.spillErrs.Add(1)
		return
	}
	data := EncodeSegment(cols, s.N, s.Sealed)
	if err := writeSegmentBytes(c.path(id), data); err != nil {
		c.spillErrs.Add(1)
		return
	}
	c.spilledSegs.Add(1)
	c.spilledBytes.Add(int64(len(data)))
	c.mu.Lock()
	c.ring = append(c.ring, s)
	c.used += int64(s.bytes)
	c.evictLocked()
	c.mu.Unlock()
}

// fault brings an evicted payload back from disk. Concurrent faults of
// the same segment collapse into one read (singleflight); waiters can
// abandon the wait when done fires. The faulted-in payload re-enters
// the eviction ring, possibly evicting colder segments to make room.
func (c *SegCache) fault(s *Segment, sp *segSrc, done <-chan struct{}) ([]*SegCol, error) {
	if done != nil {
		select {
		case <-done:
			return nil, errSegFaultCanceled
		default:
		}
	}
	c.mu.Lock()
	if p := s.pay.Load(); p != nil {
		// Raced with another faulter that already finished.
		s.ref.Store(true)
		c.hits.Add(1)
		c.mu.Unlock()
		return *p, nil
	}
	if f, ok := c.inflight[sp.id]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			// The payload may have been evicted again already, but the
			// decoded columns themselves are immutable and valid.
			c.hits.Add(1)
			return f.cols, nil
		case <-done:
			return nil, errSegFaultCanceled
		}
	}
	f := &segFlight{done: make(chan struct{})}
	c.inflight[sp.id] = f
	c.mu.Unlock()

	cols, _, _, err := ReadSegmentFile(c.path(sp.id))

	c.mu.Lock()
	delete(c.inflight, sp.id)
	if err != nil {
		c.faultErrs.Add(1)
		f.err = err
	} else {
		f.cols = cols
		s.pay.Store(&cols)
		s.ref.Store(true)
		c.misses.Add(1)
		c.faultBytes.Add(int64(s.bytes))
		c.ring = append(c.ring, s)
		c.used += int64(s.bytes)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// evictLocked runs the CLOCK second-chance sweep until the resident
// payload bytes fit the budget: a set reference bit buys the segment
// one more revolution; a clear bit evicts — the payload pointer drops,
// the zone maps stay. Terminates because every step either clears a
// bit or removes a ring member. Requires c.mu.
func (c *SegCache) evictLocked() {
	for c.used > c.budget && len(c.ring) > 0 {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		s := c.ring[c.hand]
		if s.ref.Swap(false) {
			c.hand++
			continue
		}
		s.pay.Store(nil)
		c.used -= int64(s.bytes)
		c.evictions.Add(1)
		c.ring[c.hand] = c.ring[len(c.ring)-1]
		c.ring = c.ring[:len(c.ring)-1]
	}
}

// EvictAll drops every evictable payload regardless of budget or
// reference bits — the cold-start reset the cache experiments use.
func (c *SegCache) EvictAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.ring {
		s.pay.Store(nil)
		s.ref.Store(false)
		c.evictions.Add(1)
	}
	c.ring = c.ring[:0]
	c.hand = 0
	c.used = 0
}

// SegCacheStats is a point-in-time snapshot of cache activity.
type SegCacheStats struct {
	Hits         int64 // payload resident (or shared an in-flight fault)
	Misses       int64 // payload faulted in from disk
	Evictions    int64 // payloads dropped by the CLOCK sweep
	FaultBytes   int64 // decoded payload bytes faulted in
	SpilledSegs  int64 // segments written to the spill directory
	SpilledBytes int64 // serialized bytes written
	SpillErrs    int64 // failed spill writes (segment stays memory-only)
	FaultErrs    int64 // failed fault-in reads
	Used         int64 // resident evictable payload bytes
	Budget       int64
	Resident     int // segments currently in the eviction ring
}

// Stats snapshots the cache counters.
func (c *SegCache) Stats() SegCacheStats {
	c.mu.Lock()
	used, resident := c.used, len(c.ring)
	c.mu.Unlock()
	return SegCacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		FaultBytes:   c.faultBytes.Load(),
		SpilledSegs:  c.spilledSegs.Load(),
		SpilledBytes: c.spilledBytes.Load(),
		SpillErrs:    c.spillErrs.Load(),
		FaultErrs:    c.faultErrs.Load(),
		Used:         used,
		Budget:       c.budget,
		Resident:     resident,
	}
}
