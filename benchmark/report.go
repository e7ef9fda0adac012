package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// workloadResult is one workload's section of the results file.
type workloadResult struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Samples   int      `json:"samples"` // timed asks the percentiles are over
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	EndToEnd  values   `json:"end_to_end"`
	PerLayer  values   `json:"per_layer"`
	// SelfUS is each span name's self time per replayed question:
	// its spans' durations minus what their child spans cover.
	SelfUS map[string]float64 `json:"self_us_per_question,omitempty"`
}

// timingMetrics names the stages of sample.tm, in its order.
var timingMetrics = [10]string{
	"serve.queue_us", "core.timings.correct_us", "core.timings.annotate_us", "core.timings.parse_us",
	"core.timings.rank_us", "core.timings.generate_us", "core.timings.plan_us", "core.timings.bind_us",
	"core.timings.execute_us", "core.timings.total_us",
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// misses are the asks the answer cache did not serve.
func (rd *round) misses() []sample {
	var out []sample
	for _, s := range rd.samples {
		if !s.cached {
			out = append(out, s)
		}
	}
	return out
}

// report folds everything measured on the workload into named metrics.
// A per-layer metric whose layer the workload never enters reads 0.
func (r *run) report() workloadResult {
	res := workloadResult{Name: r.w.name, Why: r.w.why, EndToEnd: values{}, PerLayer: values{}}
	e, l := res.EndToEnd, res.PerLayer

	e.set("setup_s", median(r.setups), r.setups...)
	e.set("resident_mb", r.residentMB, r.residentMB)
	l.set("semindex.build_s", r.semindexBuild.Seconds())
	l.set("grammar.build_s", r.gramBuild.Seconds())
	l.set("store.load_s", r.loadTime.Seconds())
	l.set("store.bytes_per_row", r.bytesPerRow)

	var all round // the rounds pooled
	perRound := map[string][]float64{}
	for _, rd := range r.rounds {
		lats := pick(rd.samples, func(s sample) float64 { return ms(s.lat) })
		perRound["ask_p50_ms"] = append(perRound["ask_p50_ms"], median(lats))
		perRound["ask_p99_ms"] = append(perRound["ask_p99_ms"], quantile(lats, 0.99))
		perRound["asks_per_s"] = append(perRound["asks_per_s"], median(rd.asksPerS))
		perRound["cpu_ms_per_ask"] = append(perRound["cpu_ms_per_ask"], median(rd.cpuMS))
		perRound["alloc_kb_per_ask"] = append(perRound["alloc_kb_per_ask"], median(rd.allocKB))
		perRound["fail_share"] = append(perRound["fail_share"], ratio(float64(rd.failed), float64(rd.attempted)))
		if r.w.loader {
			perRound["load_p50_ms"] = append(perRound["load_p50_ms"],
				median(pick(rd.loads, func(s loadSample) float64 { return ms(s.commit) })))
		}
		all.dur += rd.dur
		all.samples = append(all.samples, rd.samples...)
		all.attempted += rd.attempted
		all.failed += rd.failed
		all.rejected += rd.rejected
		all.errs = append(all.errs, rd.errs...)
		all.asksPerS = append(all.asksPerS, rd.asksPerS...)
		all.cpuMS = append(all.cpuMS, rd.cpuMS...)
		all.allocKB = append(all.allocKB, rd.allocKB...)
		all.ansHits += rd.ansHits
		all.ansMisses += rd.ansMisses
		all.planHits += rd.planHits
		all.planMisses += rd.planMisses
		all.gcCycles += rd.gcCycles
		all.gcCPU += rd.gcCPU
		all.allCPU += rd.allCPU
		all.loads = append(all.loads, rd.loads...)
	}
	res.Samples, res.Attempted, res.Failed, res.Errors = len(all.samples), all.attempted, all.failed, all.errs

	lats := pick(all.samples, func(s sample) float64 { return ms(s.lat) })
	e.set("ask_p50_ms", median(lats), perRound["ask_p50_ms"]...)
	e.set("ask_p99_ms", quantile(lats, 0.99), perRound["ask_p99_ms"]...)
	e.set("asks_per_s", median(all.asksPerS), perRound["asks_per_s"]...)
	e.set("cpu_ms_per_ask", median(all.cpuMS), perRound["cpu_ms_per_ask"]...)
	e.set("alloc_kb_per_ask", median(all.allocKB), perRound["alloc_kb_per_ask"]...)
	e.set("fail_share", ratio(float64(all.failed), float64(all.attempted)), perRound["fail_share"]...)
	commits := pick(all.loads, func(s loadSample) float64 { return ms(s.commit) })
	if r.w.loader {
		e.set("load_p50_ms", median(commits), perRound["load_p50_ms"]...)
	}

	l.set("core.answer_cache_hit_share", ratio(all.ansHits, all.ansHits+all.ansMisses))
	l.set("core.plan_cache_hit_share", ratio(all.planHits, all.planHits+all.planMisses))
	for i, name := range timingMetrics {
		l.set(name, median(pick(all.samples, func(s sample) float64 { return float64(s.tm[i]) })))
	}
	l.set("ask_miss_p50_ms", median(pick(all.misses(), func(s sample) float64 { return ms(s.lat) })))
	l.set("serve.overhead_us", median(pick(all.samples, func(s sample) float64 { return us(s.lat) - float64(s.tm[9]) })))
	l.set("serve.response_bytes_per_ask", mean(pick(all.samples, func(s sample) float64 { return float64(s.bytes) })))
	l.set("serve.degraded_share", mean(pick(all.samples, func(s sample) float64 {
		if s.degraded {
			return 1
		}
		return 0
	})))
	l.set("serve.rejected_share", ratio(float64(all.rejected), float64(all.attempted)))
	l.set("runtime.gc_cycles_per_s", ratio(all.gcCycles, all.dur.Seconds()))
	l.set("runtime.gc_cpu_share", ratio(all.gcCPU, all.allCPU))
	inserts := pick(all.loads, func(s loadSample) float64 { return ms(s.insert) })
	l.set("store.bulk_insert_p50_ms", median(inserts))
	l.set("store.bulk_insert_p95_ms", quantile(inserts, 0.95))
	l.set("store.load_late_p95_ms", quantile(pick(all.loads, func(s loadSample) float64 { return ms(s.late) }), 0.95))
	l.set("store.rows_loaded", float64(len(all.loads)*batchRows))

	if rp := r.replay; rp != nil {
		durs, self := spanStats(rp.spans)
		for span, metric := range map[string]string{
			"strutil.tokenize": "strutil.tokenize_us", "semindex.correct": "semindex.correct_us",
			"semindex.annotate": "semindex.annotate_us", "grammar.prepare": "grammar.prepare_us",
			"grammar.parse": "grammar.parse_us", "interp.rank": "interp.rank_us", "iql.tosql": "iql.tosql_us",
			"sql.shape": "sql.shape_us", "sql.parameterize": "sql.parameterize_us",
			"plan.bind": "plan.bind_us", "plan.compile": "plan.compile_us", "exec.run": "exec.run_us",
			"store.snapshot": "store.snapshot_us", "nlg.paraphrase": "nlg.paraphrase_us", "nlg.respond": "nlg.respond_us",
		} {
			l.set(metric, median(durs[span]))
		}
		l.set("exec.run_p99_us", quantile(durs["exec.run"], 0.99))
		l.set("plan.compiles_per_q", ratio(float64(len(durs["plan.compile"])), float64(rp.executed)))
		l.set("grammar.candidates_per_q", mean(rp.cands))
		l.set("interp.ranked_per_q", mean(rp.ranked))
		l.set("exec.rows_out_per_q", mean(rp.rowsOut))
		l.set("store.segments_scanned_per_q", ratio(rp.segScan, float64(rp.executed)))
		l.set("store.segments_skipped_share", ratio(rp.segSkip, rp.segScan+rp.segSkip))
		l.set("store.partitions_pruned_share", ratio(rp.partCut, rp.partScan+rp.partCut))
		l.set("core.ask_us", median(rp.askMiss))
		l.set("core.ask_hit_us", median(rp.askHit))
		share, _ := rp.share()
		l.set("trace.replay_vs_ask_share", share)
		l.set("trace.overhead_share", share-1)
		res.SelfUS = map[string]float64{}
		for name, ns := range self {
			res.SelfUS[name] = ns / 1e3 / float64(rp.questions)
		}
	}
	for _, m := range perLayer {
		if _, ok := l[m.Name]; !ok {
			l.set(m.Name, 0)
		}
	}
	return res
}

// print writes the workload's metrics by name, with units.
func (res workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s — %s\n   %d timed asks, %d attempted, %d failed\n", res.Name, res.Why, res.Samples, res.Attempted, res.Failed)
	for _, msg := range res.Errors {
		fmt.Fprintf(w, "   FAILED %s\n", msg)
	}
	for _, m := range endToEnd {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintln(w, "  --")
	for _, m := range perLayer {
		v := res.PerLayer[m.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	if len(res.SelfUS) > 0 {
		names := make([]string, 0, len(res.SelfUS))
		for name := range res.SelfUS {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return res.SelfUS[names[i]] > res.SelfUS[names[j]] })
		fmt.Fprintln(w, "  -- self time per replayed question, largest first")
		for _, name := range names {
			fmt.Fprintf(w, "  %-34s %14.4f us\n", name, res.SelfUS[name])
		}
	}
}

// results is the results file.
type results struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type meta struct {
	Seed       int64     `json:"seed"`
	Clients    int       `json:"clients"`
	Rounds     int       `json:"rounds"`
	RoundS     float64   `json:"round_s"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Commit     string    `json:"commit"`
	When       time.Time `json:"when"`
}
