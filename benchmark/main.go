// Command benchmark is the repository's question benchmark: it serves
// four workloads from serve.New on a loopback listener inside this
// process, drives POST /api/ask with closed-loop keep-alive clients,
// checks every answer, and reports the end-to-end metrics by name;
// a traced replay then walks the same questions through each layer's
// public functions for the per-layer metrics. See README.md.
//
//	go run -C benchmark . -seed 1                     the full report, all workloads
//	go run -C benchmark . -seed 1 -workload ask_scan  one workload, the same way
//	go run -C benchmark . -compare old.json new.json  judge two results files
//	sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                  one run of the driver's protocol
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fullShape is the report's run shape: three 10 s rounds per workload,
// the workloads' rounds interleaved, each round on a set-up of its own
// (timed) after 2 s of warm-up.
var fullShape = shape{
	setups: 1, warmup: 2 * time.Second, round: 10 * time.Second, rounds: 3,
	validate: 8, scanEvents: scanEvents, loadingEvents: loadingEvents,
	replay: 500, replayHeavy: 200, refEvery: 4,
}

// driverShape is one run of the driver's protocol: one round of the
// given length after three timed set-ups, and the reference executor
// consulted less, so that a run fits the driver's time cap.
func driverShape(seconds int) shape {
	sh := fullShape
	sh.round, sh.rounds, sh.setups = time.Duration(seconds)*time.Second, 1, 3
	sh.validate, sh.replayHeavy, sh.refEvery = 2, 60, 10
	return sh
}

func main() {
	seed := flag.Int64("seed", 1, "seed of the question streams")
	name := flag.String("workload", "", "run one workload (default: all four)")
	seconds := flag.Int("seconds", 0, "driver protocol: measure one round of this many seconds and print one JSON line")
	trace := flag.Int("trace", 0, "driver protocol: 0 prints the end-to-end metrics, 1 runs the traced replay and prints the per-layer metrics")
	out := flag.String("out", "out", "directory for the results and trace files")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	flag.Parse()

	if err := realMain(*seed, *name, *seconds, *trace == 1, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(seed int64, name string, seconds int, trace bool, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	ws := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []*workload{w}
	}
	if seconds > 0 {
		if len(ws) != 1 {
			return fmt.Errorf("-seconds wants -workload")
		}
		return driverRun(ws[0], seed, seconds, trace, out)
	}

	res, err := measure(ws, fullShape, seed, out, true, os.Stderr)
	if err != nil {
		return err
	}
	failed := 0
	for _, wr := range res.Workloads {
		wr.print(os.Stdout)
		failed += wr.Failed
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), data, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d asks failed", failed)
	}
	return nil
}

// measure runs the workloads, their timed rounds interleaved (A B C D,
// A B C D, ...) so that the slow speed waves of a shared machine fall
// on all workloads alike. Only one workload is set up at a time: the
// collector paces itself by the live heap, and a university engine
// beside half a gigabyte of telemetry would collect a fiftieth as
// often as it does alone. The traced replay follows a workload's last
// round, on that round's database.
func measure(ws []*workload, sh shape, seed int64, out string, trace bool, progress io.Writer) (*results, error) {
	runs := make([]*run, len(ws))
	for i, w := range ws {
		runs[i] = newRun(w, sh, seed, out)
		defer runs[i].tearDown()
	}
	for i := 1; i <= sh.rounds; i++ {
		for _, r := range runs {
			fmt.Fprintf(progress, "%s: round %d of %d\n", r.w.name, i, sh.rounds)
			if err := r.prepare(); err != nil {
				return nil, err
			}
			if err := r.timedRound(); err != nil {
				return nil, err
			}
			if trace && i == sh.rounds {
				fmt.Fprintf(progress, "%s: traced replay\n", r.w.name)
				if err := r.runReplay(); err != nil {
					return nil, err
				}
			}
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
	}
	res := &results{Meta: meta{
		Seed: seed, Clients: 2, Rounds: sh.rounds, RoundS: sh.round.Seconds(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), When: time.Now().UTC(),
	}}
	for _, r := range runs {
		res.Workloads = append(res.Workloads, r.report())
	}
	return res, nil
}

// commit is the checked-out commit, or "unknown" outside a git
// repository (the driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// driverRun is one run of the driver's protocol. The last line of
// standard output is the JSON object the driver reads: with trace off
// the end-to-end metrics BENCHMARK.json lists, with trace on its
// per-layer metrics.
func driverRun(w *workload, seed int64, seconds int, trace bool, out string) error {
	res, err := measure([]*workload{w}, driverShape(seconds), seed, out, trace, os.Stderr)
	if err != nil {
		return err
	}
	wr := res.Workloads[0]
	for _, msg := range wr.Errors {
		fmt.Fprintln(os.Stderr, "FAILED", msg)
	}
	e2e, layers := driverMetrics()
	defs, from := e2e, wr.EndToEnd
	if trace {
		defs, from = layers, wr.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]metric{}}
	for _, m := range defs {
		v, ok := from[m.Name]
		if !ok {
			v = wr.EndToEnd[m.Name] // an end-to-end metric the driver takes with the layers
		}
		line.Metrics[m.Name] = metric{v.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
