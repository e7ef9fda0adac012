package plan

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/store"
)

// MaxPooledScratch is the pool's cap, for tests in package plan_test.
const MaxPooledScratch = maxPooledScratch

// CancelAtCheckpoint gives ctx a Done channel that closes at the n-th
// cancellation checkpoint its run passes, whichever worker passes it
// (never, for n <= 0), and returns how many checkpoints the run has
// passed so far.
func CancelAtCheckpoint(ctx *Ctx, n int64) (passed func() int64) {
	done := make(chan struct{})
	var seen atomic.Int64
	ctx.Done = done
	ctx.tick = func() {
		if seen.Add(1) == n {
			close(done)
		}
	}
	return seen.Load
}

// poisonBufs and poisonLen size a poisoned scratch: enough buffers of
// enough elements to serve a 4,096-row join build and every operator's
// batches, and under the pool's cap, so a poisoned scratch goes back to
// the pool after its run like any other. UnpoisonedTakes reports a run
// that took past them.
const poisonBufs, poisonLen = 4, 4096

// poisonCols and poisonColsLen size a poisoned scratch's column headers
// and null masks: a scan's batch takes one buffer of each, one entry a
// column.
const poisonCols, poisonColsLen = 2, 16

// poisonA5 is the bit pattern poisoned ints, floats and hashes hold.
var poisonA5 uint64 = 0xA5A5A5A5A5A5A5A5

// PoisonScratchPool empties the scratch pool and, until restore runs,
// hands out every new vscratch with garbage in every buffer: bools
// true, ints, floats and hashes 0xA5…, strings "☠", selections −1,
// dictionary codes 0xFFFF, column headers of the wrong kind and null
// masks all set. A buffer read before it is written then yields a
// wrong answer instead of a lucky zero.
func PoisonScratchPool() (restore func()) {
	emptyScratchPool()
	old := scratchPool.New
	scratchPool.New = func() any { return poisonedScratch() }
	for i := 0; i < 16; i++ {
		scratchPool.Put(poisonedScratch())
	}
	return func() {
		scratchPool.New = old
		poisoned.mu.Lock()
		poisoned.all = nil
		poisoned.mu.Unlock()
		emptyScratchPool()
	}
}

// poisoned is every scratch PoisonScratchPool has made that a run
// could still borrow, so UnpoisonedTakes can look at what their runs
// took. The pointers are weak: a scratch the pool dropped — over the
// cap, or at random under the race detector — is no one's to borrow,
// and the collector may have it.
var poisoned struct {
	mu  sync.Mutex
	all []weak.Pointer[vscratch]
}

// UnpoisonedTakes names each buffer pool of a poisoned scratch that has
// handed out a buffer it was not poisoned with — one past its poisoned
// buffers, or one grown past their length — so that take got fresh
// zeros, not garbage. Call it after every run, before a collection
// can take a scratch the run dropped.
func UnpoisonedTakes() []string {
	poisoned.mu.Lock()
	defer poisoned.mu.Unlock()
	var out []string
	live := poisoned.all[:0]
	for _, wp := range poisoned.all {
		s := wp.Value()
		if s == nil {
			continue
		}
		live = append(live, wp)
		out = append(out, unpoisoned("bools", &s.bools, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("ints", &s.ints, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("floats", &s.floats, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("strs", &s.strs, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("hashes", &s.hashes, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("sels", &s.sels, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("codes", &s.codes, poisonBufs, poisonLen)...)
		out = append(out, unpoisoned("cols", &s.cols, poisonCols, poisonColsLen)...)
		out = append(out, unpoisoned("masks", &s.masks, poisonCols, poisonColsLen)...)
	}
	clear(poisoned.all[len(live):])
	poisoned.all = live
	return out
}

func unpoisoned[T any](name string, p *bufPool[T], bufs, n int) []string {
	var out []string
	if len(p.bufs) > bufs {
		out = append(out, fmt.Sprintf("%s: %d buffers, %d poisoned", name, len(p.bufs), bufs))
	}
	for i, b := range p.bufs {
		if cap(b) > n {
			out = append(out, fmt.Sprintf("%s[%d]: %d elements, %d poisoned", name, i, cap(b), n))
		}
	}
	return out
}

// PooledScratch is what DrainScratchPool found in one pooled vscratch:
// the bytes its buffers hold, and how many column headers and strings
// in them still reference memory outside it.
type PooledScratch struct{ Bytes, Refs int }

// DrainScratchPool empties the pool and describes each vscratch it
// held. Another P's private slot is out of its reach, so a caller that
// must see everything runs at GOMAXPROCS 1.
func DrainScratchPool() []PooledScratch {
	old := scratchPool.New
	scratchPool.New = nil
	defer func() { scratchPool.New = old }()
	var held []PooledScratch
	for {
		s, _ := scratchPool.Get().(*vscratch)
		if s == nil {
			return held
		}
		held = append(held, PooledScratch{Bytes: s.bytes(), Refs: s.refs()})
	}
}

// refs counts the column headers and strings anywhere in s's buffers
// that are not zero.
func (s *vscratch) refs() int {
	n := 0
	for _, b := range s.cols.bufs {
		for _, c := range b[:cap(b)] {
			if !reflect.ValueOf(c).IsZero() {
				n++
			}
		}
	}
	for _, b := range s.strs.bufs {
		for _, x := range b[:cap(b)] {
			if x != "" {
				n++
			}
		}
	}
	return n
}

// emptyScratchPool drops everything pooled: the first collection moves
// the pool to its victim cache, the second drops that.
func emptyScratchPool() {
	runtime.GC()
	runtime.GC()
}

func poisonedScratch() *vscratch {
	s := &vscratch{}
	poisoned.mu.Lock()
	poisoned.all = append(poisoned.all, weak.Make(s))
	poisoned.mu.Unlock()
	poison(&s.bools, poisonBufs, poisonLen, true)
	poison(&s.ints, poisonBufs, poisonLen, int64(poisonA5))
	poison(&s.floats, poisonBufs, poisonLen, math.Float64frombits(poisonA5))
	poison(&s.strs, poisonBufs, poisonLen, "☠")
	poison(&s.hashes, poisonBufs, poisonLen, poisonA5)
	poison(&s.sels, poisonBufs, poisonLen, -1)
	poison(&s.codes, poisonBufs, poisonLen, 0xFFFF)
	poison(&s.cols, poisonCols, poisonColsLen, vcol{kind: store.KindText, strs: []string{"☠"}, codes: []uint16{0xFFFF}})
	poison(&s.masks, poisonCols, poisonColsLen, []bool(nil))
	for _, masks := range s.masks.bufs {
		for m := range masks {
			masks[m] = make([]bool, maxBatch)
			for i := range masks[m] {
				masks[m][i] = true
			}
		}
	}
	return s
}

func poison[T any](p *bufPool[T], bufs, n int, v T) {
	p.bufs = make([][]T, bufs)
	for i := range p.bufs {
		b := make([]T, n)
		for j := range b {
			b[j] = v
		}
		p.bufs[i] = b
	}
}
