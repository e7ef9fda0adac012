// Command allocguard compares `go test -bench -benchmem` output against
// recorded allocs/op (and, optionally, B/op) baselines and fails when a
// benchmark regresses.
//
// Usage:
//
//	go test -run none -bench . -benchmem ./... | go run ./cmd/allocguard ci/alloc-baselines.txt
//
// The baselines file lists one benchmark per line as
//
//	BenchmarkName <max-allocs-per-op> [<max-bytes-per-op>]
//
// with '#' comments and blank lines ignored. The byte bound is for
// benchmarks whose regression would be a bigger allocation rather than
// one more — a buffer per batch sized by the batch is a single
// allocation however large — and is left unchecked when absent.
// Sub-benchmarks are named as the output prints them
// (BenchmarkName/sub). Benchmark names match with
// the -N GOMAXPROCS suffix stripped, so baselines stay portable across
// machines. Benchmarks present in the input but absent from the
// baselines file are reported but do not fail the run; baselines with
// no matching benchmark in the input DO fail (a renamed or deleted
// benchmark silently loses its guard otherwise).
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: allocguard <baselines-file> < bench-output")
		os.Exit(2)
	}
	baselines, order, err := readBaselines(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocguard:", err)
		os.Exit(2)
	}

	measured := map[string]sample{}
	var extras []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, got, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		// Keep the worst observation if a benchmark appears twice
		// (e.g. -count>1).
		if prev, seen := measured[name]; seen {
			got.allocs, got.bytes = max(got.allocs, prev.allocs), max(got.bytes, prev.bytes)
		}
		measured[name] = got
		if _, guarded := baselines[name]; !guarded && !seen(extras, name) {
			extras = append(extras, name)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "allocguard: reading stdin:", err)
		os.Exit(2)
	}

	failed := false
	fmt.Printf("%-40s %10s %10s %12s %12s  %s\n", "benchmark", "allocs/op", "max", "B/op", "max", "status")
	for _, name := range order {
		limit := baselines[name]
		maxBytes := "-"
		if limit.bytes >= 0 {
			maxBytes = strconv.FormatInt(limit.bytes, 10)
		}
		got, ok := measured[name]
		switch {
		case !ok:
			fmt.Printf("%-40s %10s %10d %12s %12s  MISSING (not in bench output)\n", name, "-", limit.allocs, "-", maxBytes)
			failed = true
		case got.allocs > limit.allocs:
			fmt.Printf("%-40s %10d %10d %12d %12s  FAIL (+%d allocs)\n", name, got.allocs, limit.allocs, got.bytes, maxBytes, got.allocs-limit.allocs)
			failed = true
		case limit.bytes >= 0 && got.bytes > limit.bytes:
			fmt.Printf("%-40s %10d %10d %12d %12s  FAIL (+%d bytes)\n", name, got.allocs, limit.allocs, got.bytes, maxBytes, got.bytes-limit.bytes)
			failed = true
		default:
			fmt.Printf("%-40s %10d %10d %12d %12s  ok\n", name, got.allocs, limit.allocs, got.bytes, maxBytes)
		}
	}
	for _, name := range extras {
		fmt.Printf("%-40s %10d %10s %12d %12s  unguarded\n", name, measured[name].allocs, "-", measured[name].bytes, "-")
	}
	if failed {
		fmt.Println("allocguard: FAIL — allocation regression (or missing benchmark); " +
			"if intentional, update ci/alloc-baselines.txt with rationale")
		os.Exit(1)
	}
	fmt.Println("allocguard: ok")
}

// sample is one benchmark's allocation figures: measured, or as a
// baseline's bounds, where bytes < 0 leaves B/op unchecked.
type sample struct{ allocs, bytes int64 }

func seen(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func readBaselines(path string) (map[string]sample, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]sample{}
	var order []string
	sc := bufio.NewScanner(f)
	ln := 0
	for sc.Scan() {
		ln++
		name, limit, ok, err := parseBaseline(sc.Text())
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %v", path, ln, err)
		}
		if !ok {
			continue
		}
		if _, dup := out[name]; dup {
			return nil, nil, fmt.Errorf("%s:%d: duplicate baseline %s", path, ln, name)
		}
		out[name] = limit
		order = append(order, name)
	}
	return out, order, sc.Err()
}

// parseBaseline reads one baselines line; ok is false for blank and
// comment lines.
func parseBaseline(line string) (name string, limit sample, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", sample{}, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 2 && len(fields) != 3 {
		return "", sample{}, false, fmt.Errorf("want \"BenchmarkName max-allocs [max-bytes]\", got %q", line)
	}
	limit.bytes = -1
	for i, dst := range []*int64{&limit.allocs, &limit.bytes}[:len(fields)-1] {
		v, err := strconv.ParseInt(fields[1+i], 10, 64)
		if err != nil || v < 0 {
			return "", sample{}, false, fmt.Errorf("bad allocation bound %q", fields[1+i])
		}
		*dst = v
	}
	return fields[0], limit, true, nil
}

// parseBenchLine extracts (name, allocs/op and B/op) from one line of
// `go test -bench -benchmem` output, e.g.
//
//	BenchmarkLoadCSVHinted-8   	     226	   5203911 ns/op	 3049213 B/op	    5037 allocs/op
//
// Metrics are read by their unit, so custom b.ReportMetric columns in
// between do not matter.
func parseBenchLine(line string) (string, sample, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", sample{}, false
	}
	fields := strings.Fields(line)
	got := sample{allocs: -1, bytes: -1}
	for i := 2; i+1 < len(fields); i++ {
		var dst *int64
		switch fields[i+1] {
		case "allocs/op":
			dst = &got.allocs
		case "B/op":
			dst = &got.bytes
		default:
			continue
		}
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return "", sample{}, false
		}
		*dst = v
	}
	if got.allocs < 0 || got.bytes < 0 {
		return "", sample{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the -GOMAXPROCS suffix when numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, got, true
}
