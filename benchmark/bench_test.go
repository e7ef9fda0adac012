package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// No question text may recur within 4096 asks of ask_fresh or
// ask_scan: the answer cache holds 1024, so a nearer repeat would be
// served from it and the workload would stop measuring the pipeline.
func TestStreamsNeverRepeatWithinWindow(t *testing.T) {
	const window = 4096
	for _, tmpls := range [][]template{freshTemplates, scanTemplates(scanEvents)} {
		for _, seed := range []int64{1, 2, 3, 7, 42, 1 << 40} {
			s := newStream(tmpls, seed)
			last := map[string]int{}
			for i := 0; i < 3*12288; i++ {
				q := s.at(i)
				if j, seen := last[q.text]; seen && i-j < window {
					t.Fatalf("seed %d: %q asked at %d and again at %d", seed, q.text, j, i)
				}
				last[q.text] = i
			}
		}
	}
}

// The validation samples must not be questions the stream asks soon:
// they would sit in the answer cache and turn into hits.
func TestValidationSamplesAreFarFromTheStream(t *testing.T) {
	s := newStream(freshTemplates, 5)
	sampled := map[string]bool{}
	for _, q := range s.samples(8) {
		sampled[q.text] = true
	}
	for i := 0; i < 12000; i++ {
		if q := s.at(i); sampled[q.text] {
			t.Fatalf("validation sample %q is ask %d of the stream", q.text, i)
		}
	}
}

// Validation must fail loudly, naming the question: "how many students
// in <dept> have gpa over <g>" is outside the grammar's coverage and a
// generator that dealt it would otherwise count it as failed asks.
func TestValidationNamesTheQuestion(t *testing.T) {
	r := newRun(findWorkload("ask_fresh"), smokeShape, 1, t.TempDir())
	defer r.tearDown()
	if _, err := r.setUp(); err != nil {
		t.Fatal(err)
	}
	bad := question{
		text:  "how many students in Physics have gpa over 3",
		sql:   "SELECT COUNT(*) FROM students, departments WHERE (((students.dept_id = departments.dept_id) AND (departments.name = 'Physics')) AND (students.gpa > 3.0))",
		fixed: -1,
	}
	r.qs.validate = append(r.qs.validate, bad)
	err := r.validate()
	if err == nil || !strings.Contains(err.Error(), bad.text) {
		t.Fatalf("validate: %v, want an error naming %q", err, bad.text)
	}
	wrong := r.qs.validate[0]
	wrong.sql = strings.Replace(wrong.sql, ">", ">=", 1)
	r.qs.validate = []question{wrong}
	err = r.validate()
	if err == nil || !strings.Contains(err.Error(), wrong.text) {
		t.Fatalf("validate with the wrong gold SQL: %v, want an error naming %q", err, wrong.text)
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// smokeShape is the whole run in a few seconds: one 1 s round per
// workload, small telemetry tables, a 50-question replay.
var smokeShape = shape{
	setups: 1, warmup: 200 * time.Millisecond, round: time.Second, rounds: 1,
	validate: 1, scanEvents: 1 << 16, loadingEvents: 1 << 15,
	replay: 50, replayHeavy: 50, refEvery: 8,
}

func TestSmoke(t *testing.T) {
	out := t.TempDir()
	res, err := measure(workloads, smokeShape, 1, out, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(res.Workloads), len(workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Samples == 0 {
			t.Errorf("%s: %d timed asks, %d failed: %v", wr.Name, wr.Samples, wr.Failed, wr.Errors)
		}
		loader := findWorkload(wr.Name).loader
		for _, m := range endToEnd {
			v, ok := wr.EndToEnd[m.Name]
			if m.Name == "load_p50_ms" && !loader {
				if ok {
					t.Errorf("%s reports load_p50_ms without a loader", wr.Name)
				}
				continue
			}
			if !ok || !finite(v.Value) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a finite value in %s", wr.Name, m.Name, v, ok, m.Unit)
			}
			if m.Name != "fail_share" && v.Value <= 0 {
				t.Errorf("%s: %s = %v, want above zero", wr.Name, m.Name, v.Value)
			}
		}
		for _, m := range perLayer {
			v, ok := wr.PerLayer[m.Name]
			if !ok || !finite(v.Value) || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want a finite value in %s", wr.Name, m.Name, v, ok, m.Unit)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s reports %d per-layer metrics, the registry has %d", wr.Name, len(wr.PerLayer), len(perLayer))
		}
		checkTrace(t, filepath.Join(out, "trace-"+wr.Name+".json"))
	}

	// What each workload was chosen for must show even at this size.
	byName := map[string]workloadResult{}
	for _, wr := range res.Workloads {
		byName[wr.Name] = wr
	}
	if v := byName["ask_repeat"].PerLayer["grammar.parse_us"].Value; v != 0 {
		t.Errorf("ask_repeat replay entered the parser (grammar.parse_us = %v)", v)
	}
	if v := byName["ask_fresh"].PerLayer["grammar.parse_us"].Value; v <= 0 {
		t.Errorf("ask_fresh replay never entered the parser")
	}
	if v := byName["ask_while_loading"].PerLayer["store.rows_loaded"].Value; v <= 0 {
		t.Errorf("ask_while_loading loaded no rows")
	}
	if v := byName["ask_while_loading"].PerLayer["plan.compiles_per_q"].Value; v <= 0 {
		t.Errorf("ask_while_loading replay never recompiled a plan template")
	}
}

// checkTrace asserts the span tree is well formed: every span but a
// question's root has a parent of the same question whose interval
// contains it, and the children of a span together take no longer than
// the span itself (so no self time is negative).
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tr struct{ Spans []span }
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tr.Spans) == 0 {
		t.Errorf("%s has no spans", path)
	}
	children := map[int]int64{}
	for i, sp := range tr.Spans {
		if sp.ID != i || sp.End < sp.Start {
			t.Errorf("%s: span %d is %+v", path, i, sp)
			return
		}
		if sp.Parent < 0 {
			if sp.Name != "core.ask" {
				t.Errorf("%s: span %s has no parent", path, sp.Name)
			}
			continue
		}
		p := tr.Spans[sp.Parent]
		if p.Q != sp.Q || sp.Start < p.Start || sp.End > p.End {
			t.Errorf("%s: span %+v lies outside its parent %+v", path, sp, p)
		}
		children[sp.Parent] += sp.End - sp.Start
	}
	for id, sum := range children {
		if p := tr.Spans[id]; sum > p.End-p.Start {
			t.Errorf("%s: the children of %+v take %d ns, longer than the span", path, p, sum)
		}
	}
}

// BENCHMARK.json must list exactly the names the program prints.
func TestBenchmarkJSONMatchesTheRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %s (%s) in the program", i, b.Workloads[i], w.name, w.why)
		}
	}
	e2e, layers := driverMetrics()
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program prints %d", len(got), kind, len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (bounded && g.Bound != m.Bound) {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, g, m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2e, true)
	same("per_layer", b.PerLayer, layers, false)
	hasSetup := false
	for _, m := range b.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s has bound %v, want within (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s")
	}
	if strings.Join(b.Paths, ",") != "benchmark" || strings.Join(b.Command, " ") != "sh benchmark/run.sh" {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50 float64, rounds ...float64) *results {
		e := values{}
		e.set("ask_p50_ms", p50, rounds...)
		e.set("asks_per_s", 1000, 1000, 1001, 999)
		e.set("fail_share", 0)
		return &results{Workloads: []workloadResult{{Name: "ask_fresh", EndToEnd: e}}}
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(1.00, 1.00, 1.01, 0.99))
	for _, c := range []struct {
		name    string
		res     *results
		verdict string
		fails   bool
	}{
		{"same", mk(1.05, 1.05, 1.06, 1.04), "same", false},
		{"worse", mk(1.40, 1.40, 1.41, 1.39), "worse", true},
		{"better", mk(0.60, 0.60, 0.61, 0.59), "better", false},
		{"unresolved", mk(1.05, 0.85, 1.05, 1.30), "unresolved", false},
	} {
		var buf bytes.Buffer
		err := compareFiles(&buf, base, write(c.name+".json", c.res))
		if (err != nil) != c.fails {
			t.Errorf("%s: error %v, want failure %v", c.name, err, c.fails)
		}
		row := ""
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "ask_p50_ms") {
				row = line
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(row), c.verdict) {
			t.Errorf("%s: row %q, want verdict %s", c.name, row, c.verdict)
		}
	}
}
