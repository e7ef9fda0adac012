package main

import (
	"sort"
	"time"
)

// metricDef names one metric the benchmark reports. Later issues refer
// to metrics by these names, so they are fixed here and nowhere else.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old value an end-to-end metric may
	// worsen by before -compare calls it a regression; Floor is an
	// absolute allowance on top (set-up jitter, a share that starts at
	// zero). Per-layer metrics have neither.
	Bound, Floor float64
	// Driver marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end, where the driver holds every later change to their
	// bound. The rest are reported in full and judged by -compare, but
	// reach the driver with the per-layer set, unbounded: the timings
	// because on the shared host two sets of ten runs a quarter of an
	// hour apart differed by up to a quarter, fail_share and
	// load_p50_ms because the driver wants every end-to-end metric
	// above zero and present on every workload.
	Driver bool
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05, Driver: true},
	{Name: "ask_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "ask_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "asks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "cpu_ms_per_ask", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_ask", Unit: "KiB", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "resident_mb", Unit: "MiB", Better: "lower", Bound: 0.05, Driver: true},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Floor: 0.001},
	{Name: "load_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}, // ask_while_loading only
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

var perLayer = []metricDef{
	layer("strutil.tokenize_us", "us", "lower"),
	layer("semindex.correct_us", "us", "lower"),
	layer("semindex.annotate_us", "us", "lower"),
	layer("semindex.build_s", "s", "lower"),
	layer("grammar.build_s", "s", "lower"),
	layer("store.load_s", "s", "lower"),
	layer("grammar.prepare_us", "us", "lower"),
	layer("grammar.parse_us", "us", "lower"),
	layer("grammar.candidates_per_q", "count", "lower"),
	layer("interp.rank_us", "us", "lower"),
	layer("interp.ranked_per_q", "count", "lower"),
	layer("iql.tosql_us", "us", "lower"),
	layer("sql.shape_us", "us", "lower"),
	layer("sql.parameterize_us", "us", "lower"),
	layer("plan.bind_us", "us", "lower"),
	layer("plan.compile_us", "us", "lower"),
	layer("plan.compiles_per_q", "count", "lower"),
	layer("exec.run_us", "us", "lower"),
	layer("exec.run_p99_us", "us", "lower"),
	layer("exec.rows_out_per_q", "count", "lower"),
	layer("store.snapshot_us", "us", "lower"),
	layer("store.segments_scanned_per_q", "count", "lower"),
	layer("store.segments_skipped_share", "ratio", "higher"),
	layer("store.partitions_pruned_share", "ratio", "higher"),
	layer("store.bulk_insert_p50_ms", "ms", "lower"),
	layer("store.bulk_insert_p95_ms", "ms", "lower"),
	layer("store.load_late_p95_ms", "ms", "lower"),
	layer("store.rows_loaded", "count", "higher"),
	layer("store.bytes_per_row", "B", "lower"),
	layer("nlg.paraphrase_us", "us", "lower"),
	layer("nlg.respond_us", "us", "lower"),
	layer("core.ask_us", "us", "lower"),
	layer("core.ask_hit_us", "us", "lower"),
	layer("core.answer_cache_hit_share", "ratio", "higher"),
	layer("core.plan_cache_hit_share", "ratio", "higher"),
	layer("core.timings.correct_us", "us", "lower"),
	layer("core.timings.annotate_us", "us", "lower"),
	layer("core.timings.parse_us", "us", "lower"),
	layer("core.timings.rank_us", "us", "lower"),
	layer("core.timings.generate_us", "us", "lower"),
	layer("core.timings.plan_us", "us", "lower"),
	layer("core.timings.bind_us", "us", "lower"),
	layer("core.timings.execute_us", "us", "lower"),
	layer("core.timings.total_us", "us", "lower"),
	layer("ask_miss_p50_ms", "ms", "lower"),
	layer("serve.overhead_us", "us", "lower"),
	layer("serve.queue_us", "us", "lower"),
	layer("serve.response_bytes_per_ask", "B", "lower"),
	layer("serve.degraded_share", "ratio", "lower"),
	layer("serve.rejected_share", "ratio", "lower"),
	layer("runtime.gc_cycles_per_s", "1/s", "lower"),
	layer("runtime.gc_cpu_share", "ratio", "lower"),
	layer("trace.overhead_share", "ratio", "lower"),
	layer("trace.replay_vs_ask_share", "ratio", "lower"),
}

// driverMetrics splits the registry the way BENCHMARK.json does.
func driverMetrics() (e2e, layers []metricDef) {
	for _, m := range endToEnd {
		if m.Driver {
			e2e = append(e2e, m)
		} else {
			layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	return e2e, append(layers, perLayer...)
}

// value is one reported number. Rounds holds the per-round (or
// per-set-up) values behind an end-to-end metric, from which -compare
// takes the run's own spread.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// values collects a workload's metrics by name; set looks the unit up
// in the registry so a misspelt name cannot slip into a report.
type values map[string]value

var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		u[m.Name] = m.Unit
	}
	return u
}()

func (vs values) set(name string, v float64, rounds ...float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	vs[name] = value{Value: v, Unit: unit, Rounds: rounds}
}

// quantile is the q-quantile of xs (nearest rank on the sorted
// values); 0 for an empty sample, the reading of a layer a workload
// never enters.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, and 0 where the denominator never moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
