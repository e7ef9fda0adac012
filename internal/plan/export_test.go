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
// and null masks, one entry a column: a group table takes three header
// buffers (its key and argument columns and two batches'), a join probe
// two, a build two, a scan one of each. poisonBatches is as many batch
// headers, a group table taking two. poisonSlots is how many column
// builders, accumulators, key columns and worker contexts a poisoned
// structure holds, and poisonRows how many garbage rows each of its
// vectors: a structure not emptied as it is taken then numbers its
// first group, key or row past them. All of it stays under the pool's
// cap.
const poisonCols, poisonColsLen, poisonBatches, poisonSlots, poisonRows = 4, 16, 2, 6, 32

// poisonA5 is the bit pattern poisoned ints, floats and hashes hold.
var poisonA5 uint64 = 0xA5A5A5A5A5A5A5A5

// PoisonScratchPool empties the scratch pool and, until restore runs,
// hands out every new vscratch with garbage in every buffer: bools
// true, ints, floats and hashes 0xA5…, strings "☠", selections −1,
// dictionary codes 0xFFFF, column and batch headers of the wrong kind
// and null masks all set — and in every structure: column builders
// holding rows, a scan's position, a build table, key sets holding keys
// and chains, a group table holding groups and accumulators, worker
// contexts. A buffer read before it is written, or a structure not
// emptied as it is taken, then yields a wrong answer instead of a lucky
// zero.
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
		out = append(out, unpoisoned("batches", &s.batches, poisonBatches, 1)...)
		out = append(out, unpoisoned("masks", &s.masks, poisonCols, poisonColsLen)...)
		table := orZero(s.table)
		for name, n := range map[string]int{"builders": cap(s.bufs), "table states": cap(table.states), "workers": cap(orZero(s.exchange).wk), "builds": cap(orZero(s.exchange).builds),
			"table keys": cap(table.groups.bufs), "set keys": cap(orZero(s.set).bufs)} {
			if n > poisonSlots {
				out = append(out, fmt.Sprintf("%s: %d, %d poisoned", name, n, poisonSlots))
			}
		}
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
// the bytes its buffers and structures hold, how many headers, strings
// and contexts in them still reference memory outside it, how many
// keys its largest key set — a Distinct's, a group table's or a
// DISTINCT aggregate's — has room for, and how many rows its largest
// column builder — a join build's or a Sort's — has room for.
type PooledScratch struct{ Bytes, Refs, Keys, Rows int }

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
		table := orZero(s.table)
		keys := max(cap(orZero(s.set).hs), cap(table.groups.hs))
		for _, st := range table.states[:cap(table.states)] {
			keys = max(keys, cap(st.seen.hs))
		}
		rows := 0
		for _, cb := range s.bufs[:cap(s.bufs)] {
			rows = max(rows, cap(cb.nulls))
		}
		held = append(held, PooledScratch{Bytes: s.bytes(), Refs: s.refs(), Keys: keys, Rows: rows})
	}
}

// refs counts what anywhere in s, buffers and structures, references
// memory outside it: column and batch headers, strings in buffers and
// builders, a scan's position, a build table, a group table's plan and
// headers, prebuilt join entries and worker contexts that are not zero.
func (s *vscratch) refs() int {
	n := 0
	for _, b := range s.cols.bufs {
		n += nonZero(b[:cap(b)])
	}
	for _, b := range s.batches.bufs {
		n += nonZero(b[:cap(b)])
	}
	for _, b := range s.strs.bufs {
		n += nonEmpty(b[:cap(b)])
	}
	for _, cb := range s.bufs[:cap(s.bufs)] {
		n += nonEmpty(cb.strs[:cap(cb.strs)])
	}
	x, table := orZero(s.exchange), orZero(s.table)
	n += nonZero([]segIter{*orZero(s.scan)}) + nonZero([]vecBuildTable{*orZero(s.build)}) +
		nonZero(x.builds[:cap(x.builds)]) + nonZero(x.wk[:cap(x.wk)])
	if x.a != nil || x.ctx != nil {
		n++
	}
	n += orZero(s.set).refs() + table.groups.refs() + nonZero(table.keyCols) + nonZero(table.argCols)
	if table.ap != nil || table.sc != nil {
		n++
	}
	for _, st := range table.states[:cap(table.states)] {
		n += nonEmpty(st.strs[:cap(st.strs)]) + st.seen.refs()
	}
	return n
}

// refs counts the set's key headers and strings that are not zero.
func (s *keySet) refs() int {
	n := nonZero(s.keys[:cap(s.keys)])
	for _, cb := range s.bufs[:cap(s.bufs)] {
		n += nonEmpty(cb.strs[:cap(cb.strs)])
	}
	return n
}

func nonZero[T any](xs []T) int {
	n := 0
	for _, x := range xs {
		if !reflect.ValueOf(x).IsZero() {
			n++
		}
	}
	return n
}

func nonEmpty(xs []string) int {
	n := 0
	for _, x := range xs {
		if x != "" {
			n++
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
	poison(&s.cols, poisonCols, poisonColsLen, badCol)
	poison(&s.batches, poisonBatches, 1, vbatch{n: -1, cols: filled(3, badCol), sel: []int32{-1}})
	poison(&s.masks, poisonCols, poisonColsLen, []bool(nil))
	for _, masks := range s.masks.bufs {
		for m := range masks {
			masks[m] = filled(maxBatch, true)
		}
	}
	s.bufs = poisonedBuilders()
	s.scan = &segIter{m: -1, pos: -1, hi: -1, si: 7, segEnd: -1, cols: []int{-1}, out: &vbatch{n: -1}}
	s.build = &vecBuildTable{cols: filled(3, badCol), keyTable: poisonedKeySet().keyTable}
	set := poisonedKeySet()
	s.set = &set
	s.table = &groupTable{groups: poisonedKeySet(), born: filled(poisonRows, int32(-1)),
		states: make([]aggState, poisonSlots), morsel: -1, keyCols: filled(2, badCol), argCols: filled(2, badCol)}
	for i := range s.table.states {
		s.table.states[i] = poisonedAggState()
	}
	s.exchange = &exchangeRun{}
	s.exchange.spans = filled(poisonSlots, [2]int{-1, -1})
	s.exchange.builds = filled(poisonSlots, joinBuild{bt: s.build})
	s.exchange.wk = filled(poisonSlots, worker{ctx: Ctx{Par: -1}, mr: morselRun{m: -1, lo: -1, hi: -1}})
	s.exchange.next.Store(-5)
	s.exchange.workers = -1
	if s.bytes() > maxPooledScratch {
		panic(fmt.Sprintf("a poisoned scratch holds %d bytes, over the pool's cap", s.bytes()))
	}
	return s
}

// orZero is *p, or an empty T when p is nil.
func orZero[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// badCol is the header poisoned column headers hold.
var badCol = vcol{kind: store.KindText, strs: []string{"☠"}, codes: []uint16{0xFFFF}}

// filled returns n copies of v.
func filled[T any](n int, v T) []T {
	b := make([]T, n)
	for i := range b {
		b[i] = v
	}
	return b
}

// poisonedKeySet holds poisonRows keys of poisonSlots garbage columns,
// chained through buckets and links that point nowhere.
func poisonedKeySet() keySet {
	const n = poisonRows
	s := keySet{bufs: poisonedBuilders()}
	s.keys = filled(poisonSlots, badCol)
	s.hs, s.head, s.next = filled(n, poisonA5), filled(n, int32(-1)), filled(n, int32(-1))
	return s
}

// poisonedBuilders are poisonSlots column builders of the wrong kind,
// each holding poisonRows garbage rows, every one NULL.
func poisonedBuilders() []colbuf {
	const n = poisonRows
	bufs := make([]colbuf, poisonSlots)
	for k := range bufs {
		bufs[k] = colbuf{kind: store.KindText, ints: filled(n, int64(poisonA5)),
			floats: filled(n, math.Float64frombits(poisonA5)), strs: filled(n, "☠"),
			bools: filled(n, true), nulls: filled(n, true), anyNull: true}
	}
	return bufs
}

// poisonedAggState holds poisonRows groups' garbage accumulators and
// seen keys.
func poisonedAggState() aggState {
	const n = poisonRows
	return aggState{counts: filled(n, int64(poisonA5)), lo: filled(n, poisonA5), hi: filled(n, int64(poisonA5)),
		x: xsums{lo: 3, w: 2, chunks: filled(2*n, int64(poisonA5)), spare: filled(n, int64(poisonA5)),
			spec: filled(n, uint8(0xFF)), pending: xsCarryEvery - 1},
		ints: filled(n, int64(poisonA5)), floats: filled(n, math.Float64frombits(poisonA5)),
		strs: filled(n, "☠"), bools: filled(n, true), has: filled(n, true), led: filled(n, true),
		firstAt: filled(n, int32(-1)), bestAt: filled(n, int32(-1)), seen: poisonedKeySet()}
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
