// Benchmark harness: one testing.B target per reconstructed table and
// figure (T1–T6, F1–F4). The printed rows/series themselves come from
// cmd/nlibench, which shares this package's code paths; the benchmarks
// here measure the cost of regenerating each experiment and keep every
// experiment wired into `go test -bench`.
package nli

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/keyword"
	"repro/internal/pattern"
	"repro/internal/schema"
	"repro/internal/semindex"
	"repro/internal/sql"
	"repro/internal/store"
)

// BenchmarkT1Accuracy regenerates the per-class accuracy table for the
// full pipeline over all domains.
func BenchmarkT1Accuracy(b *testing.B) {
	type domainSetup struct {
		engine *core.Engine
		db     *DB
		cases  []bench.Case
	}
	var setups []domainSetup
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		setups = append(setups, domainSetup{
			engine: core.NewEngine(db, core.DefaultOptions()),
			db:     db,
			cases:  bench.Corpus(name),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range setups {
			rep, err := bench.Evaluate(s.engine, s.db, s.cases)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Overall.Accuracy() < 0.85 {
				b.Fatalf("accuracy regressed: %.2f", rep.Overall.Accuracy())
			}
		}
	}
}

// BenchmarkT2Ablation regenerates the lexicon-ablation table.
func BenchmarkT2Ablation(b *testing.B) {
	cases := bench.AllCases()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblation(cases); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3Ambiguity regenerates the ambiguity statistics.
func BenchmarkT3Ambiguity(b *testing.B) {
	db := dataset.University(1)
	e := core.NewEngine(db, core.DefaultOptions())
	cases := bench.Corpus("university")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bench.EvaluateAmbiguity(e, db, cases)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Top1 == 0 {
			b.Fatal("ranking regressed")
		}
	}
}

// BenchmarkT4Dialogue regenerates the dialogue-resolution table.
func BenchmarkT4Dialogue(b *testing.B) {
	cases := bench.DialogueCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes, err := bench.EvaluateDialogue(core.DefaultOptions(), cases)
		if err != nil {
			b.Fatal(err)
		}
		if len(outcomes) != len(cases) {
			b.Fatal("missing outcomes")
		}
	}
}

// BenchmarkT5Typos regenerates the misspelling-robustness row with
// correction enabled at distance 2.
func BenchmarkT5Typos(b *testing.B) {
	db := dataset.University(1)
	opts := core.DefaultOptions()
	opts.SpellMaxDist = 2
	e := core.NewEngine(db, opts)
	typoed := bench.TypoCases(bench.Corpus("university"), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Evaluate(e, db, typoed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT6Baselines regenerates the baseline comparison.
func BenchmarkT6Baselines(b *testing.B) {
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	systems := []bench.System{
		keyword.New(idx),
		pattern.New(idx),
		core.NewEngine(db, core.DefaultOptions()),
	}
	cases := bench.Corpus("university")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			if _, err := bench.Evaluate(sys, db, cases); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkF1Stages measures the staged pipeline on representative
// questions and reports the per-stage split from core.Timings, averaged
// per question, beside ns/op (the figure plots it). The answer cache is
// off: a profile of cache hits would time nothing.
func BenchmarkF1Stages(b *testing.B) {
	opts := core.DefaultOptions()
	opts.AnswerCacheSize = 0
	e := core.NewEngine(dataset.University(1), opts)
	questions := []string{
		"show all students",
		"students with gpa over 3.5",
		"average salary of instructors in Computer Science per department",
	}
	b.ReportAllocs()
	b.ResetTimer()
	stages := []string{"correct", "annotate", "parse", "rank", "generate", "plan", "bind", "execute", "verbalize"}
	sums := make([]time.Duration, len(stages))
	for i := 0; i < b.N; i++ {
		p := bench.Profile(e, questions)
		if p.N != len(questions) {
			b.Fatalf("only %d/%d questions answered", p.N, len(questions))
		}
		for j, d := range []time.Duration{p.Correct, p.Annotate, p.Parse, p.Rank, p.Generate, p.Plan, p.Bind, p.Execute, p.Verbalize} {
			sums[j] += d
		}
	}
	for j, name := range stages {
		b.ReportMetric(float64(sums[j].Nanoseconds())/float64(b.N), name+"-ns/q")
	}
}

// BenchmarkF2Scale measures generated-SQL execution versus data size:
// a primary-key lookup, answered by a scan.
func BenchmarkF2Scale(b *testing.B) {
	point := sql.MustParse("SELECT name FROM students WHERE id = 7")
	for _, scale := range []int{1, 4, 16, 64} {
		db := dataset.University(scale)
		b.Run(fmt.Sprintf("rows=%d/scan", db.TotalRows()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Query(db.Snapshot(), point); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF3Coverage regenerates the grammar coverage curve.
func BenchmarkF3Coverage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := bench.CoverageCurve()
		if err != nil {
			b.Fatal(err)
		}
		if points[len(points)-1].Fraction() < 0.9 {
			b.Fatal("final coverage regressed")
		}
	}
}

// BenchmarkF4JoinPath measures Steiner join-path search on a chain
// schema at increasing terminal counts.
func BenchmarkF4JoinPath(b *testing.B) {
	var tables []*schema.Table
	var fks []schema.ForeignKey
	const chain = 16
	for i := 0; i < chain; i++ {
		tables = append(tables, &schema.Table{
			Name:       fmt.Sprintf("t%d", i),
			PrimaryKey: "id",
			Columns: []schema.Column{
				{Name: "id", Type: schema.Int},
				{Name: "next_id", Type: schema.Int},
			},
		})
		if i > 0 {
			fks = append(fks, schema.ForeignKey{
				Table: fmt.Sprintf("t%d", i-1), Column: "next_id",
				RefTable: fmt.Sprintf("t%d", i), RefColumn: "id",
			})
		}
	}
	s := schema.MustNew("chain", tables, fks)
	for _, k := range []int{2, 4, 8} {
		terms := make([]string, k)
		for i := 0; i < k; i++ {
			terms[i] = fmt.Sprintf("t%d", i*2)
		}
		b.Run(fmt.Sprintf("terminals=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.JoinPath(terms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF5JoinHeavy measures join-heavy queries at dataset scale 4
// through the streaming planner (exec.Query) and the seed-style
// materializing executor (exec.ReferenceQueryAt). The planned/reference
// pairs quantify what predicate pushdown and cost-based join ordering
// buy on multi-table equi-joins.
func BenchmarkF5JoinHeavy(b *testing.B) {
	db := dataset.University(4)
	queries := []struct {
		name, query string
		parallel    bool // heavy enough that the rewrite must insert an exchange
	}{
		{"join4", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7", true},
		{"join3agg", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name", true},
		// A key lookup scans students, and a scan that size fans out.
		{"pointjoin", "SELECT s.name, d.name FROM students s, departments d " +
			"WHERE s.dept_id = d.dept_id AND s.id = 7", true},
	}
	// The parallel worker degree: hardware width, but at least 4 so the
	// exchange machinery is exercised (and regressions fail loudly)
	// even on small CI boxes.
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4
	}
	for _, q := range queries {
		stmt := sql.MustParse(q.query)
		b.Run(q.name+"/planned", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Query(db.Snapshot(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Compiles per iteration exactly like /planned above, so the
		// two series differ only in execution strategy.
		b.Run(q.name+"/planned-parallel", func(b *testing.B) {
			p, err := exec.Compile(db.Snapshot(), stmt, par)
			if err != nil {
				b.Fatal(err)
			}
			if got := p.OperatorCounts()["exchange"] > 0; got != q.parallel {
				b.Fatalf("%s: exchange operator present=%v, want %v", q.name, got, q.parallel)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn := db.Snapshot()
				p, err := exec.Compile(sn, stmt, par)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.ReferenceQueryAt(db.Snapshot(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF6ParallelSpeedup measures the parallel executor against
// the serial plans across worker degrees on the join- and
// aggregate-heavy queries at dataset scale 4 (figure F6), verifying
// result equality as it goes.
func BenchmarkF6ParallelSpeedup(b *testing.B) {
	db := dataset.University(4)
	queries := []struct{ name, query string }{
		{"join4", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7"},
		{"join3agg", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name"},
	}
	for _, q := range queries {
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/par=%d", q.name, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bench.MeasureParallelSpeedup(db, q.name, q.query, par, 3); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkF7VectorizedSpeedup measures batch-at-a-time execution over
// typed column vectors on prebuilt plans, serial and parallel, against
// the materializing reference executor, at dataset scale 4 (figure F7).
// Allocations are reported: the vectorized scan→filter→aggregate path
// must allocate per batch, not per row.
func BenchmarkF7VectorizedSpeedup(b *testing.B) {
	db := dataset.University(4)
	queries := []struct{ name, query string }{
		{"scanfilteragg", "SELECT AVG(gpa), COUNT(*) FROM students WHERE gpa > 2.5"},
		{"join4", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7"},
		{"join3agg", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name"},
	}
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4
	}
	for _, q := range queries {
		stmt := sql.MustParse(q.query)
		for _, degree := range []int{1, par} {
			p, err := exec.Compile(db.Snapshot(), stmt, degree)
			if err != nil {
				b.Fatal(err)
			}
			suffix := "serial"
			if degree > 1 {
				suffix = fmt.Sprintf("par=%d", degree)
			}
			b.Run(fmt.Sprintf("%s/vec/%s", q.name, suffix), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(context.Background(), db.Snapshot(), p, exec.RunOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(q.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.ReferenceQueryAt(db.Snapshot(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAskCachedMixed exercises the engine answer cache at a
// realistic hit ratio: a small hot set asked over and over, mixed with
// a long tail of distinct cold questions that overflow the cache —
// the serving-path profile the pure hot-hit benchmark cannot see.
// Cache regressions (missed hits, eviction thrash, lock contention)
// move this number; the reported hit metric pins the ratio.
func BenchmarkAskCachedMixed(b *testing.B) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 64
	db, err := Dataset("university", 1)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(db, opts)
	hot := []string{
		"students with gpa over 3.5",
		"show all students",
		"how many students are in Computer Science",
		"average salary of instructors per department",
	}
	cold := make([]string, 256)
	for i := range cold {
		// i/100 and i%100 together are unique per i, so all 256
		// questions are distinct.
		cold[i] = fmt.Sprintf("students with gpa over %d.%02d", 1+i/100, i%100)
	}
	// Warm the hot set.
	for _, q := range hot {
		if _, err := eng.Ask(q); err != nil {
			b.Fatal(err)
		}
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := hot[i%len(hot)]
		if i%5 == 4 { // ~80% hot / 20% cold
			q = cold[(i/5)%len(cold)]
		}
		ans, err := eng.Ask(q)
		if err != nil {
			b.Fatal(err)
		}
		if ans.Cached {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-ratio")
}

// BenchmarkF9PreparedPlanCache measures the prepared-query serving
// path: the F9 template workload (same shapes, rotating constants,
// answer cache off) asked through an engine whose plan-template cache
// is on versus one planning from scratch, with the realized plan-cache
// hit ratio reported. The allocation counts guard the bind path — the
// shape key and constants are computed into pooled scratch, so a
// plan-cache hit must not regress into per-ask planning allocations.
func BenchmarkF9PreparedPlanCache(b *testing.B) {
	questions := func() []string {
		var qs []string
		for _, shape := range bench.PreparedWorkload() {
			qs = append(qs, shape...)
		}
		return qs
	}()
	run := func(b *testing.B, planCache int) {
		opts := DefaultOptions()
		opts.AnswerCacheSize = 0
		opts.PlanCacheSize = planCache
		opts.Parallelism = 1
		eng := New(dataset.University(1), opts)
		for _, q := range questions { // warm (and compile the templates)
			if _, err := eng.Ask(q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		var planStage time.Duration
		for i := 0; i < b.N; i++ {
			ans, err := eng.Ask(questions[i%len(questions)])
			if err != nil {
				b.Fatal(err)
			}
			planStage += ans.Timings.Plan + ans.Timings.Bind
		}
		b.StopTimer()
		b.ReportMetric(float64(planStage.Nanoseconds())/float64(b.N), "plan-ns/op")
		hits, misses := eng.PlanCacheStats()
		if hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
		}
	}
	b.Run("plan-cached", func(b *testing.B) { run(b, 256) })
	b.Run("cold-planned", func(b *testing.B) { run(b, 0) })
}

// BenchmarkF8ConcurrentReadWrite measures read latency with and
// without a concurrent bulk loader publishing into another table of
// the same database — the F8 experiment's regression gate. Snapshot
// isolation pins every query to one immutable version, so the
// under-load number must not collapse relative to quiescent (the
// experiment's bar is 2x), and results stay exact: the COUNT is
// verified on every iteration.
func BenchmarkF8ConcurrentReadWrite(b *testing.B) {
	mkDB := func() *DB { return dataset.University(2) }
	query := sql.MustParse("SELECT AVG(gpa), COUNT(*) FROM students WHERE gpa > 2.5")
	check := func(b *testing.B, res *exec.Result) {
		b.Helper()
		if len(res.Rows) != 1 || res.Rows[0][1].IsNull() {
			b.Fatalf("bad result %+v", res.Rows)
		}
	}

	b.Run("quiescent", func(b *testing.B) {
		db := mkDB()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := exec.Query(db.Snapshot(), query)
			if err != nil {
				b.Fatal(err)
			}
			check(b, res)
		}
	})

	b.Run("under-bulk-load", func(b *testing.B) {
		db := mkDB()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := make([]store.Row, 128)
				for i := range rows {
					rows[i] = store.Row{store.Int(int64(i)), store.Int(int64(i % 97)), store.Text("B")}
				}
				db.MustBulkInsert("enrollments", rows)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := exec.Query(db.Snapshot(), query)
			if err != nil {
				b.Fatal(err)
			}
			check(b, res)
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkF5PlanShapes measures plan compilation over the full gold
// corpus and keeps the plan-shape counters wired into `go test -bench`.
func BenchmarkF5PlanShapes(b *testing.B) {
	db := dataset.University(1)
	cases := bench.Corpus("university")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shape, err := bench.PlanShapes(db, cases)
		if err != nil {
			b.Fatal(err)
		}
		if shape.Operators["hash-join"] == 0 {
			b.Fatal("no hash joins planned over the corpus")
		}
	}
}

// BenchmarkAskEndToEnd is the headline single-question latency with
// the answer cache disabled — every iteration pays the full pipeline.
func BenchmarkAskEndToEnd(b *testing.B) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0
	db, err := Dataset("university", 1)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(db, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Ask("students with gpa over 3.5"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskEndToEndCached is the serving-path latency: the same hot
// question answered through the engine answer cache.
func BenchmarkAskEndToEndCached(b *testing.B) {
	eng, err := Open("university", 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Ask("students with gpa over 3.5"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := eng.Ask("students with gpa over 3.5")
		if err != nil {
			b.Fatal(err)
		}
		if !ans.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}
