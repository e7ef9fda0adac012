package grammar_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/grammar"
	"repro/internal/strutil"
)

// TestSharedTreeReentrant runs the whole differential corpus from eight
// goroutines against the same Grammar values and holds each result to
// the serial run. Under -race it also proves the tree is only read.
func TestSharedTreeReentrant(t *testing.T) {
	doms := domains()
	items := corpusItems()
	want := make([]string, len(items))
	for i, it := range items {
		want[i], _ = it.run(doms[it.dom].g)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine starts elsewhere so different questions
			// are in the tree at the same moment.
			for k := range items {
				i := (k + w*len(items)/8) % len(items)
				if got, _ := items[i].run(doms[items[i].dom].g); got != want[i] {
					t.Errorf("goroutine %d: concurrent parse differs from serial:\n got  %s\n want %s", w, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParseDoesNotRebuildTree bounds the allocations of one parse: the
// per-question tree build this replaces cost about 6,500 on its own
// (7,050 for this question in all).
func TestParseDoesNotRebuildTree(t *testing.T) {
	g := domains()["university"].g
	p := g.Prepare(strutil.Tokenize("students with gpa over 3.5"))
	if len(g.ParsePrepared(p)) == 0 {
		t.Fatal("no parse")
	}
	if n := testing.AllocsPerRun(20, func() { g.ParsePrepared(p) }); n >= 1000 {
		t.Errorf("ParsePrepared allocates %.0f times per question, want < 1000", n)
	}
}

// TestGrammarRetainsLittle bounds what one constructed Grammar keeps
// alive beyond the index it was given.
func TestGrammarRetainsLittle(t *testing.T) {
	idx := domains()["university"].idx
	const n = 50
	keep := make([]*grammar.Grammar, n)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := range keep {
		keep[i] = grammar.New(idx, grammar.DefaultOptions())
	}
	after := heap()
	runtime.KeepAlive(keep)
	if after < before {
		after = before
	}
	per := float64(after-before) / n
	t.Logf("one Grammar retains %.1f KiB", per/1024)
	if per > 24<<10 {
		t.Errorf("one Grammar retains %.1f KiB beyond its index, want <= 24 KiB", per/1024)
	}
}
