// Command nlibench regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md § 3 and EXPERIMENTS.md).
//
// Usage:
//
//	nlibench [-exp all|ID[,ID...]] [-f11rows N] [-f12rows N] [-f12cache MiB]
//
// where each ID is one of T1..T6, F2..F8, F10, F11 or F12. F1 and F9
// are retired: the question benchmark (benchmark/) records them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
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

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (T1..T6, F2..F8, F10..F12) or 'all'")
	flag.IntVar(&f11Rows, "f11rows", 10_000_000, "event-log rows for experiment F11")
	flag.IntVar(&f12Rows, "f12rows", 4_194_304, "event-log rows for experiment F12 (rounded up to whole 64K segments)")
	flag.IntVar(&f12CacheMB, "f12cache", 0, "segment-cache budget in MiB for F12 (0 = dataset/8, keeping the 4x larger-than-memory bar)")
	flag.Parse()

	experiments := map[string]func() error{
		"T1": expT1, "T2": expT2, "T3": expT3, "T4": expT4,
		"T5": expT5, "T6": expT6,
		"F2": expF2, "F3": expF3, "F4": expF4, "F5": expF5,
		"F6": expF6, "F7": expF7, "F8": expF8, "F10": expF10,
		"F11": expF11, "F12": expF12,
	}
	order := []string{"T1", "T2", "T3", "T4", "T5", "T6", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F10", "F11", "F12"}

	ids := order
	if *exp == "all" {
		// The F11 default (10M rows) is sized for a standalone run;
		// inside the full sweep it would dwarf every other experiment,
		// so cap it at 1M unless the user asked for a size explicitly.
		f11Set := false
		flag.Visit(func(f *flag.Flag) { f11Set = f11Set || f.Name == "f11rows" })
		if !f11Set && f11Rows > 1_000_000 {
			f11Rows = 1_000_000
		}
		// Same for F12: cold reps do real disk I/O, so the sweep keeps
		// the smallest log that still spans enough 64K segments for the
		// larger-than-memory bars.
		f12Set := false
		flag.Visit(func(f *flag.Flag) { f12Set = f12Set || f.Name == "f12rows" })
		if !f12Set && f12Rows > 1_048_576 {
			f12Rows = 1_048_576
		}
	} else {
		ids = strings.Split(strings.ToUpper(*exp), ",")
		for _, id := range ids {
			if experiments[id] == nil {
				fmt.Fprintf(os.Stderr, "nlibench: unknown experiment %q (have %v)\n", id, order)
				os.Exit(2)
			}
		}
	}
	for _, id := range ids {
		if err := experiments[id](); err != nil {
			fmt.Fprintf(os.Stderr, "nlibench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func header(id, title string) {
	fmt.Printf("\n================ %s: %s ================\n", id, title)
}

func pct(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }

// systemsFor builds the three evaluated systems over one domain.
func systemsFor(db *store.DB) []bench.System {
	idx := semindex.Build(db, semindex.DefaultOptions())
	return []bench.System{
		keyword.New(idx),
		pattern.New(idx),
		core.NewEngine(db, core.DefaultOptions()),
	}
}

// expT1 prints end-to-end accuracy by construct class per domain and
// system.
func expT1() error {
	header("T1", "end-to-end accuracy by construct class")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		cases := bench.Corpus(domain)
		reports := map[string]*bench.Report{}
		var names []string
		for _, sys := range systemsFor(db) {
			rep, err := bench.Evaluate(sys, db, cases)
			if err != nil {
				return err
			}
			reports[sys.Name()] = rep
			names = append(names, sys.Name())
		}
		fmt.Printf("\n-- domain: %s (%d questions) --\n", domain, len(cases))
		fmt.Printf("%-14s", "class")
		for _, n := range names {
			fmt.Printf("  %8s", n)
		}
		fmt.Println()
		for _, class := range bench.Classes() {
			if reports[names[0]].Stats[class] == nil {
				continue
			}
			fmt.Printf("%-14s", class)
			for _, n := range names {
				s := reports[n].Stats[class]
				fmt.Printf("  %8s", pct(s.Accuracy()))
			}
			fmt.Println()
		}
		fmt.Printf("%-14s", "OVERALL")
		for _, n := range names {
			fmt.Printf("  %8s", pct(reports[n].Overall.Accuracy()))
		}
		fmt.Println()
	}
	return nil
}

// expT2 prints the lexicon-ablation table.
func expT2() error {
	header("T2", "lexicon ablation (full corpus, all domains)")
	results, err := bench.RunAblation(bench.AllCases())
	if err != nil {
		return err
	}
	full := results[0].Report.Overall.Accuracy()
	fmt.Printf("%-14s  %8s  %8s  %8s\n", "variant", "accuracy", "answered", "delta")
	for _, r := range results {
		o := r.Report.Overall
		fmt.Printf("%-14s  %8s  %8s  %+7.1f\n",
			r.Name, pct(o.Accuracy()),
			pct(float64(o.Answered)/float64(o.Total)),
			100*(o.Accuracy()-full))
	}
	return nil
}

// expT3 prints interpretation-ambiguity statistics.
func expT3() error {
	header("T3", "interpretation ambiguity and ranking")
	fmt.Printf("%-12s %7s %7s %7s %7s %7s %7s %7s %7s\n",
		"domain", "parsed", "avg#", "=1", "=2", "=3", ">=4", "top-1", "top-3")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		e := core.NewEngine(db, core.DefaultOptions())
		rep, err := bench.EvaluateAmbiguity(e, db, bench.Corpus(domain))
		if err != nil {
			return err
		}
		p := float64(rep.Parsed)
		fmt.Printf("%-12s %7d %7.2f %7s %7s %7s %7s %7s %7s\n",
			domain, rep.Parsed, rep.AvgInterpretations(),
			pct(float64(rep.Hist[0])/p), pct(float64(rep.Hist[1])/p),
			pct(float64(rep.Hist[2])/p), pct(float64(rep.Hist[3])/p),
			pct(float64(rep.Top1)/p), pct(float64(rep.Top3)/p))
	}
	return nil
}

// expT4 prints dialogue/ellipsis resolution accuracy per class.
func expT4() error {
	header("T4", "dialogue context resolution")
	outcomes, err := bench.EvaluateDialogue(core.DefaultOptions(), bench.DialogueCorpus())
	if err != nil {
		return err
	}
	type agg struct{ total, correct int }
	byClass := map[string]*agg{}
	var order []string
	for _, o := range outcomes {
		a := byClass[o.Case.Class]
		if a == nil {
			a = &agg{}
			byClass[o.Case.Class] = a
			order = append(order, o.Case.Class)
		}
		a.total++
		if o.Correct {
			a.correct++
		}
	}
	fmt.Printf("%-18s %7s %7s\n", "ellipsis class", "cases", "correct")
	total, correct := 0, 0
	for _, cl := range order {
		a := byClass[cl]
		fmt.Printf("%-18s %7d %7s\n", cl, a.total, pct(float64(a.correct)/float64(a.total)))
		total += a.total
		correct += a.correct
	}
	fmt.Printf("%-18s %7d %7s\n", "OVERALL", total, pct(float64(correct)/float64(total)))
	return nil
}

// expT5 prints misspelling robustness.
func expT5() error {
	header("T5", "misspelling robustness (university corpus)")
	db, err := dataset.ByName("university", 1)
	if err != nil {
		return err
	}
	cases := bench.Corpus("university")
	variants := []struct {
		name string
		dist int
	}{
		{"correction off", 0},
		{"correction d=1", 1},
		{"correction d=2", 2},
	}
	fmt.Printf("%-16s %8s %8s %8s\n", "configuration", "0 typos", "1 typo", "2 typos")
	for _, v := range variants {
		opts := core.DefaultOptions()
		opts.SpellMaxDist = v.dist
		e := core.NewEngine(db, opts)
		fmt.Printf("%-16s", v.name)
		for _, n := range []int{0, 1, 2} {
			cs := cases
			if n > 0 {
				cs = bench.TypoCases(cases, n)
			}
			rep, err := bench.Evaluate(e, db, cs)
			if err != nil {
				return err
			}
			fmt.Printf(" %8s", pct(rep.Overall.Accuracy()))
		}
		fmt.Println()
	}
	return nil
}

// expT6 prints the baseline comparison detail (coverage and precision).
func expT6() error {
	header("T6", "baseline comparison: coverage and precision")
	fmt.Printf("%-12s %-9s %9s %9s %9s\n", "domain", "system", "answered", "accuracy", "precision")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		for _, sys := range systemsFor(db) {
			rep, err := bench.Evaluate(sys, db, bench.Corpus(domain))
			if err != nil {
				return err
			}
			o := rep.Overall
			fmt.Printf("%-12s %-9s %9s %9s %9s\n", domain, sys.Name(),
				pct(float64(o.Answered)/float64(o.Total)),
				pct(o.Accuracy()), pct(o.Precision()))
		}
	}
	return nil
}

// expF2 prints execution scalability: scan time vs rows. The point
// lookup names a primary key, which the one access path answers with a
// full scan (zone maps skip only what an ascending key lets them).
func expF2() error {
	header("F2", "execution time vs data size (scan)")
	point := sql.MustParse("SELECT name FROM students WHERE id = 7")
	aggJoin := sql.MustParse("SELECT d.name, AVG(i.salary) FROM instructors i, departments d " +
		"WHERE i.dept_id = d.dept_id GROUP BY d.name")
	fmt.Printf("%7s %9s | %12s | %12s\n", "scale", "rows", "point", "agg-join")
	for _, scale := range []int{1, 4, 16, 64} {
		db := dataset.University(scale)
		pointTime := timeQuery(db, point, 50)
		aggTime := timeQuery(db, aggJoin, 10)
		fmt.Printf("%7d %9d | %12s | %12s\n", scale, db.TotalRows(), pointTime, aggTime)
	}
	return nil
}

func timeQuery(db *store.DB, stmt *sql.SelectStmt, reps int) time.Duration {
	// Warm-up run.
	if _, err := exec.Query(db.Snapshot(), stmt); err != nil {
		panic(err)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := exec.Query(db.Snapshot(), stmt); err != nil {
			panic(err)
		}
	}
	return time.Since(start) / time.Duration(reps)
}

// expF3 prints the grammar coverage growth curve.
func expF3() error {
	header("F3", "corpus coverage vs enabled rule groups")
	points, err := bench.CoverageCurve()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-14s %9s %9s\n", "groups", "added", "answered", "coverage")
	for _, p := range points {
		fmt.Printf("%-6d %-14s %6d/%-3d %9s\n", p.Groups, "+"+p.Name, p.Answered, p.Total, pct(p.Fraction()))
	}
	return nil
}

// expF4 prints join-path (Steiner approximation) search cost.
func expF4() error {
	header("F4", "join-path search cost vs terminals (chain schema)")
	for _, chain := range []int{8, 16, 32} {
		s := chainSchema(chain)
		fmt.Printf("\n-- chain of %d tables --\n", chain)
		fmt.Printf("%10s %12s %8s\n", "terminals", "time/op", "joins")
		for _, k := range []int{2, 3, 4, 6, 8} {
			if k > chain {
				continue
			}
			// Terminals every other table: connecting k terminals needs
			// ~2(k-1) joins through the skipped link tables.
			terms := make([]string, k)
			for i := 0; i < k; i++ {
				pos := i * 2
				if pos >= chain {
					pos = chain - 1
				}
				terms[i] = fmt.Sprintf("t%d", pos)
			}
			reps := 2000
			start := time.Now()
			var joins int
			for i := 0; i < reps; i++ {
				plan, err := s.JoinPath(terms)
				if err != nil {
					return err
				}
				joins = len(plan.Conds)
			}
			per := time.Since(start) / time.Duration(reps)
			fmt.Printf("%10d %12s %8d\n", k, per, joins)
		}
	}
	return nil
}

// expF5 prints the planner's operator shapes over the gold corpus and
// the streaming-executor speedup over the materializing reference path
// on join-heavy queries at scale.
func expF5() error {
	header("F5", "plan shapes and planner speedup")
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			return err
		}
		shape, err := bench.PlanShapes(db, bench.Corpus(domain))
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %s\n", domain, shape)
	}

	fmt.Printf("\n%-28s %12s %12s %8s\n", "query (university, scale 4)", "planned", "reference", "speedup")
	db := dataset.University(4)
	for _, q := range []struct{ name, query string }{
		{"4-table filtered join", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7"},
		{"agg over 3-table join", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name"},
		{"point lookup join", "SELECT s.name, d.name FROM students s, departments d " +
			"WHERE s.dept_id = d.dept_id AND s.id = 7"},
	} {
		sp, err := bench.MeasureSpeedup(db, q.name, q.query, 20)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s %12s %12s %7.1fx\n", sp.Name, sp.Planned, sp.Reference, sp.Factor())
	}
	return nil
}

// expF6 prints the parallel-execution speedup of the exchange operator
// over serial plans as the worker degree sweeps past the hardware
// width, on the join- and aggregate-heavy queries at scale 4.
func expF6() error {
	header("F6", fmt.Sprintf("parallel speedup vs worker degree (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)))
	db := dataset.University(4)
	queries := []struct{ name, query string }{
		{"4-table filtered join", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7"},
		{"agg over 3-table join", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name"},
		{"grouped avg, full scan", "SELECT d.name, AVG(s.gpa) FROM students s, departments d " +
			"WHERE s.dept_id = d.dept_id GROUP BY d.name"},
	}
	fmt.Printf("%-24s %6s %12s %12s %8s\n", "query (university, x4)", "par", "serial", "parallel", "speedup")
	for _, q := range queries {
		for _, par := range []int{2, 4, 8, 16} {
			sp, err := bench.MeasureParallelSpeedup(db, q.name, q.query, par, 20)
			if err != nil {
				return err
			}
			fmt.Printf("%-24s %6d %12s %12s %7.2fx\n", sp.Name, sp.Par, sp.Serial, sp.Parallel, sp.Factor())
		}
	}
	return nil
}

// expF7 prints the vectorized engine's speedup: batch-at-a-time over
// typed column vectors on a prebuilt plan versus the materializing
// reference executor, serial and parallel, on scan-, join- and
// aggregate-heavy queries at scale 4.
func expF7() error {
	header("F7", fmt.Sprintf("vectorized engine vs reference executor (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)))
	db := dataset.University(4)
	queries := []struct{ name, query string }{
		{"scan-filter-aggregate", "SELECT AVG(gpa), COUNT(*) FROM students WHERE gpa > 2.5"},
		{"4-table filtered join", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7"},
		{"agg over 3-table join", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name"},
		{"distinct projection", "SELECT DISTINCT year, dept_id FROM students ORDER BY year, dept_id"},
	}
	fmt.Printf("%-24s %6s %12s %12s %8s\n",
		"query (university, x4)", "par", "vectorized", "reference", "speedup")
	for _, q := range queries {
		for _, par := range []int{1, 4} {
			sp, err := bench.MeasureVecSpeedup(db, q.name, q.query, par, 20)
			if err != nil {
				return err
			}
			fmt.Printf("%-24s %6d %12s %12s %7.2fx\n",
				sp.Name, sp.Par, sp.Vec, sp.Reference, sp.Factor())
		}
	}
	return nil
}

// expF8 measures the cost of snapshot isolation on the serving path:
// read latency of a students-only query while a bulk loader
// continuously publishes batches into another table of the same
// database, versus the same reads on a quiescent store. MVCC pins each
// query to one immutable snapshot, so under-load reads should stay
// within ~2x of quiescent (no collapse, no torn results). The second
// half demonstrates write locality of the answer cache: a cached
// answer over students survives a bulk load into courses and dies only
// when students itself changes.
func expF8() error {
	header("F8", "read throughput under concurrent write load (snapshot isolation)")
	db := dataset.University(2)
	stmt := sql.MustParse("SELECT AVG(gpa), COUNT(*) FROM students WHERE gpa > 2.5")
	const reps = 2000

	quiescent := timeQuery(db, stmt, reps)

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		batches := 0
		for {
			select {
			case <-stop:
				done <- batches
				return
			default:
			}
			rows := make([]store.Row, 128)
			for i := range rows {
				rows[i] = store.Row{store.Int(int64(i)), store.Int(int64(i % 97)), store.Text("B")}
			}
			db.MustBulkInsert("enrollments", rows)
			batches++
		}
	}()
	underLoad := timeQuery(db, stmt, reps)
	close(stop)
	batches := <-done

	ratio := float64(underLoad) / float64(quiescent)
	fmt.Printf("%-34s %12s\n", "read latency (students scan-agg)", "per query")
	fmt.Printf("%-34s %12s\n", "  quiescent", quiescent)
	fmt.Printf("%-34s %12s   (%d bulk batches published)\n", "  under bulk-load", underLoad, batches)
	fmt.Printf("%-34s %11.2fx   (bar: 2x)\n", "  slowdown", ratio)
	// The experiment's bar is 2x; the hard failure threshold is looser
	// because a 1-core CI container legitimately halves reader CPU.
	// What must never happen is collapse (readers blocked on writers).
	if ratio > 6 {
		return fmt.Errorf("F8: reads collapsed under write load: %.1fx slowdown", ratio)
	}

	// Answer-cache write locality.
	eng := core.NewEngine(db, core.DefaultOptions())
	q := "students with gpa over 3.5"
	if _, err := eng.Ask(q); err != nil {
		return err
	}
	db.MustBulkInsert("courses", []store.Row{{store.Int(100001), store.Text("Snapshot Semantics"),
		store.Int(1), store.Int(4), store.Int(1)}})
	afterOther, err := eng.Ask(q)
	if err != nil {
		return err
	}
	db.MustInsert("students", store.Int(1000001), store.Text("New Student"),
		store.Int(1), store.Int(4), store.Float(3.9))
	afterSelf, err := eng.Ask(q)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %12v   (want true)\n", "cache hot after write to courses", afterOther.Cached)
	fmt.Printf("%-34s %12v   (want false)\n", "cache hot after write to students", afterSelf.Cached)
	if !afterOther.Cached {
		return fmt.Errorf("F8: write to courses evicted a cached answer over students")
	}
	if afterSelf.Cached {
		return fmt.Errorf("F8: write to students did not evict its cached answer")
	}
	return nil
}

// expF10 measures the serving layer (internal/serve) under an
// overload burst against a tightly-sized admission controller. Bars:
// zero requests end without a definite status, the excess is
// rejected with 429, the admitted requests' p99 stays under the
// deadline, and the run leaks no goroutines.
func expF10() error {
	header("F10", fmt.Sprintf("serving layer under overload: deadline %v, %d asks/client (GOMAXPROCS=%d)",
		bench.F10Deadline, bench.F10AsksPerClient, runtime.GOMAXPROCS(0)))
	r, err := bench.RunF10(2)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %7s %7s %7s %6s %7s %9s %11s %11s\n",
		"clients", "asks", "200", "429", "504", "err", "cached", "QPS", "p50", "p99")
	fmt.Printf("%-10d %8d %7d %7d %7d %6d %7d %9.0f %11s %11s\n",
		r.Clients, r.Asks, r.Served, r.Rejected, r.Timeout, r.Errors, r.Cached, r.QPS, r.P50, r.P99)
	fmt.Printf("\n%-38s %8d (degraded answers: %d)\n", "goroutine growth after shutdown", r.GoroutineGrowth, r.Degraded)
	fmt.Printf("%-38s %8s   (bar: < %v)\n", "admitted p99", r.P99, bench.F10Deadline)

	if r.Errors > 0 {
		return fmt.Errorf("F10: %d overload requests ended with unexpected statuses", r.Errors)
	}
	if r.Rejected == 0 {
		return fmt.Errorf("F10: overload rejected nothing — backpressure never engaged")
	}
	if r.Served > 0 && r.P99 >= bench.F10Deadline {
		return fmt.Errorf("F10: admitted overload p99 %v breaches the %v deadline bar", r.P99, bench.F10Deadline)
	}
	if r.GoroutineGrowth > 2 {
		return fmt.Errorf("F10: %d goroutines leaked across the run", r.GoroutineGrowth)
	}
	return nil
}

// chainSchema builds t0 -> t1 -> ... -> t(n-1) linked by foreign keys.
func chainSchema(n int) *schema.Schema {
	var tables []*schema.Table
	var fks []schema.ForeignKey
	for i := 0; i < n; i++ {
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
	return schema.MustNew("chain", tables, fks)
}

// f11Rows sizes the F11 event log (flag -f11rows; default 10M).
var f11Rows int

// expF11 measures the compressed columnar segment layout against the
// same rows resealed as one plain unsealed segment (the uncompressed
// layout): storage footprint (bytes/row, encoding mix), and
// scan/filter/aggregate throughput with zone-map skipping live, serial
// and parallel. Every probe is measured sealed, the table is resealed
// once, and every probe is measured again; each timed query is verified
// row-for-row across the sealed and plain layouts, and parallel against
// serial, inside MeasureSegQuery/MeasurePlain. Selective predicates on
// the clustered timestamp must beat the uncompressed layout by >=3x;
// the footprint must shrink by >=2x.
func expF11() error {
	n := f11Rows
	header("F11", fmt.Sprintf("compressed segments + zone-map skipping, %d-row event log (GOMAXPROCS=%d)",
		n, runtime.GOMAXPROCS(0)))
	db := dataset.Events(n)

	fp := bench.MeasureSegFootprint(db, "events")

	// ts advances one tick every 8 rows from a fixed epoch; windows are
	// placed mid-log by fraction of that span.
	span := int64(n / 8)
	tsAt := func(frac float64) int64 { return 1_700_000_000 + int64(frac*float64(span)) }
	queries := []struct{ name, query string }{
		{"ts window ~2% count", fmt.Sprintf(
			"SELECT COUNT(*) FROM events WHERE ts BETWEEN %d AND %d", tsAt(0.49), tsAt(0.51))},
		{"ts window ~2% agg", fmt.Sprintf(
			"SELECT AVG(latency_ms), COUNT(*) FROM events WHERE ts BETWEEN %d AND %d AND level = 'error'",
			tsAt(0.49), tsAt(0.51))},
		{"ts tail >=99%", fmt.Sprintf(
			"SELECT MAX(latency_ms) FROM events WHERE ts >= %d", tsAt(0.99))},
		{"dict equality (no skip)", "SELECT COUNT(*) FROM events WHERE level = 'error'"},
		{"group by service", "SELECT service, COUNT(*) FROM events WHERE level = 'error' GROUP BY service ORDER BY service"},
	}
	reps := 5
	if n <= 1_000_000 {
		reps = 10
	}
	var probes []bench.SegQuery
	for _, q := range queries {
		for _, par := range []int{1, 4} {
			sq, err := bench.MeasureSegQuery(db, "events", q.name, q.query, par, reps)
			if err != nil {
				return err
			}
			probes = append(probes, sq)
		}
	}

	// A seal boundary past the last row leaves one plain unsealed
	// segment: every column as its typed slice, nothing to skip.
	if err := db.Table("events").SetSegmentRows(n + 1); err != nil {
		return err
	}
	plain := bench.MeasureSegFootprint(db, "events")
	compression := float64(plain.SegBytes) / float64(fp.SegBytes)
	fmt.Printf("%-38s %12d\n", "rows", fp.Rows)
	fmt.Printf("%-38s %12d (%.2f B/row)\n", "sealed segment layout bytes", fp.SegBytes, fp.SegPerRow)
	fmt.Printf("%-38s %12d (%.2f B/row)\n", "one plain segment bytes", plain.SegBytes, plain.SegPerRow)
	fmt.Printf("%-38s %11.2fx   (bar: 2x)\n", "compression", compression)
	fmt.Printf("%-38s %12d (sealed %s)\n", "segments", fp.Segments, pct(fp.SealedRatio))
	fmt.Printf("%-38s %v\n", "column encodings", fp.EncodingCount)

	fmt.Printf("\n%-26s %4s %11s %11s %8s %9s %14s %7s\n",
		"query", "par", "segments", "plain", "speedup", "skipped", "rows/s", "out")
	var tsSerialFactor float64
	for i := range probes {
		sq := &probes[i]
		if err := sq.MeasurePlain(db, reps); err != nil {
			return err
		}
		fmt.Printf("%-26s %4d %11s %11s %7.2fx %9s %14.0f %7d\n",
			sq.Name, sq.Par, sq.Seg, sq.Plain, sq.Factor(),
			pct(sq.SkipRatio), sq.RowsPerSec(), sq.OutRows)
		if sq.Name == "ts window ~2% count" && sq.Par == 1 {
			tsSerialFactor = sq.Factor()
		}
	}
	if compression < 2 {
		return fmt.Errorf("F11: compression %.2fx below the 2x bar", compression)
	}
	// Zone maps skip whole 64K-row segments, so the ~2% window can only
	// pay off once the log spans many segments: the 3x bar applies at
	// >=1M rows (the default run is 10M). Smaller smoke runs still
	// verify results row-for-row and must not regress below the
	// uncompressed layout.
	if n >= 1_000_000 {
		if tsSerialFactor < 3 {
			return fmt.Errorf("F11: selective clustered-scan speedup %.2fx below the 3x bar", tsSerialFactor)
		}
	} else if tsSerialFactor < 1 {
		return fmt.Errorf("F11: selective clustered scan regressed (%.2fx) vs the uncompressed layout", tsSerialFactor)
	}
	return nil
}

// f12Rows sizes the F12 event log (flag -f12rows; default 4M, rounded
// up to whole 64K-row segments so every segment seals and spills).
// f12CacheMB is the segment-cache byte budget in MiB; 0 sizes it at an
// eighth of the segment footprint, keeping the dataset >= 4x budget.
var (
	f12Rows    int
	f12CacheMB int
)

// expF12 measures the larger-than-memory path: sealed segments
// serialized to disk, a byte-budgeted read-through cache in front of
// them, and zone maps that stay resident across eviction. Cold runs
// (everything evicted) fault payloads back through the cache; the same
// probes over the same segments before EnableSpill — every payload
// resident, no cache in the loop — are the baseline every cold result
// must match row for row. Bars, enforced here and inside
// ColdScan.MeasureCold: the dataset is at least 4x the cache budget; cold
// read-through results are row-for-row identical to resident
// execution; at par 1 the selective window query skips evicted
// segments on zone maps alone (disk faults == segments decoded, with
// a nonzero skip count); and at par 1 and 4 alike it skips segments
// and faults fewer than the table holds.
func expF12() error {
	n := f12Rows
	if r := n % store.DefaultSegmentRows; r != 0 {
		n += store.DefaultSegmentRows - r
	}
	if n < 4*store.DefaultSegmentRows {
		n = 4 * store.DefaultSegmentRows
	}
	header("F12", fmt.Sprintf("larger-than-memory cold scans, %d-row event log (GOMAXPROCS=%d)",
		n, runtime.GOMAXPROCS(0)))
	heap0 := liveHeap()
	db := dataset.Events(n)

	span := int64(n / 8)
	tsAt := func(frac float64) int64 { return 1_700_000_000 + int64(frac*float64(span)) }
	queries := []struct{ name, query string }{
		{"full-scan agg", "SELECT COUNT(*), AVG(latency_ms) FROM events"},
		{"ts window ~2% count", fmt.Sprintf(
			"SELECT COUNT(*) FROM events WHERE ts BETWEEN %d AND %d", tsAt(0.49), tsAt(0.51))},
		{"errors by service", "SELECT service, COUNT(*) FROM events WHERE level = 'error' GROUP BY service ORDER BY service"},
	}
	reps := 3
	var probes []bench.ColdScan
	for _, q := range queries {
		for _, par := range []int{1, 4} {
			cs, err := bench.MeasureResident(db, "events", q.name, q.query, par, reps)
			if err != nil {
				return err
			}
			probes = append(probes, cs)
		}
	}

	// Size the budget from the actual segment footprint so the 4x bar
	// holds at any -f12rows, then enable spill; the next Segments()
	// pass funnels every sealed segment into the cache.
	segBytes := int64(db.Table("events").Snap().Segments().Bytes())
	budget := int64(f12CacheMB) << 20
	if budget <= 0 {
		budget = segBytes / 8
	}
	if segBytes < 4*budget {
		return fmt.Errorf("F12: segment footprint %d B under 4x the %d B cache budget — not larger than memory", segBytes, budget)
	}
	dir, err := os.MkdirTemp("", "nlibench-f12-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := db.EnableSpill(dir, budget); err != nil {
		return err
	}
	_ = db.Table("events").Snap().Segments() // adoption: spill sealed segments
	c := db.SegCache()
	st := c.Stats()
	fmt.Printf("%-38s %12d (%.2f B/row)\n", "segment footprint bytes", segBytes, float64(segBytes)/float64(n))
	fmt.Printf("%-38s %12d (dataset/budget %.1fx)\n", "cache budget bytes", budget, float64(segBytes)/float64(budget))
	fmt.Printf("%-38s %12d (%d bytes, %d errors)\n", "segments spilled", st.SpilledSegs, st.SpilledBytes, st.SpillErrs)
	fmt.Printf("%-38s %12d of %12d budget resident after adoption\n", "bytes", st.Used, st.Budget)

	fmt.Printf("\n%-22s %4s %11s %11s %11s %9s %8s %9s %8s %14s %6s\n",
		"query", "par", "cold", "warm", "resident", "penalty", "faults", "fault MB", "warm hit", "cold rows/s", "out")
	var windows []bench.ColdScan
	for i := range probes {
		cs := &probes[i]
		if err := cs.MeasureCold(db, reps); err != nil {
			return err
		}
		fmt.Printf("%-22s %4d %11s %11s %11s %8.2fx %8d %9.1f %8s %14.0f %6d\n",
			cs.Name, cs.Par, cs.Cold, cs.Warm, cs.Resident, cs.ColdPenalty(),
			cs.ColdMiss, cs.ColdMB, pct(cs.WarmHit), cs.ColdRowsPerSec(), cs.OutRows)
		if cs.Name == "ts window ~2% count" {
			windows = append(windows, *cs)
		}
	}
	// The segments are the table's only copy, so once the cold runs
	// have cycled every payload through the cache, what the table
	// keeps alive is the budget plus what never leaves memory: zone
	// maps, segment identities and the spill bookkeeping.
	heap := liveHeap() - heap0
	runtime.KeepAlive(db)
	fmt.Printf("%-38s %12.2f MB (cache budget %.2f MB, segments %.2f MB)\n", "process heap over start, after the runs",
		float64(heap)/(1<<20), float64(budget)/(1<<20), float64(segBytes)/(1<<20))
	fmt.Printf("\nbars: dataset %.1fx cache budget; cold results row-for-row identical to resident execution\n",
		float64(segBytes)/float64(budget))
	for _, w := range windows {
		if w.Skipped == 0 {
			return fmt.Errorf("F12: the selective window query at par %d skipped no segments — zone maps must prune evicted segments", w.Par)
		}
		if w.ColdMiss >= w.Skipped+w.Scanned {
			return fmt.Errorf("F12: cold window query at par %d faulted %d segments with only %d decoded — pruning saved no I/O",
				w.Par, w.ColdMiss, w.Scanned)
		}
		fmt.Printf("window scan at par %d faulted %d of %d segments (zone maps pruned %d without disk I/O)\n",
			w.Par, w.ColdMiss, w.Scanned+w.Skipped, w.Skipped)
	}
	return nil
}

// liveHeap is the heap in use after two collections (the second
// empties what the first moved to the sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
