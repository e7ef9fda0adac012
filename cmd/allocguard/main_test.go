package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		want sample
		ok   bool
	}{
		{"BenchmarkLoadCSVHinted-8   \t     226\t   5203911 ns/op\t 3049213 B/op\t    5037 allocs/op",
			"BenchmarkLoadCSVHinted", sample{allocs: 5037, bytes: 3049213}, true},
		// Sub-benchmarks keep their path; only a numeric -N suffix goes.
		{"BenchmarkScanTemplates/region_join-2  \t 40\t 2482680 ns/op\t 1310456 B/op\t 806 allocs/op",
			"BenchmarkScanTemplates/region_join", sample{allocs: 806, bytes: 1310456}, true},
		{"BenchmarkScanTemplates/two-pred \t 40\t 1 ns/op\t 16 B/op\t 1 allocs/op",
			"BenchmarkScanTemplates/two-pred", sample{allocs: 1, bytes: 16}, true},
		// Custom metrics between the standard ones are skipped by unit.
		{"BenchmarkAskCachedMixed-2 \t 100\t 9000 ns/op\t 0.8000 hit-ratio\t 2400 B/op\t 31 allocs/op",
			"BenchmarkAskCachedMixed", sample{allocs: 31, bytes: 2400}, true},
		// Without -benchmem there is nothing to guard.
		{"BenchmarkParseSimple-2 \t 100\t 9000 ns/op", "", sample{}, false},
		{"BenchmarkBroken-2 \t 100\t 9000 ns/op\t lots B/op\t 3 allocs/op", "", sample{}, false},
		{"ok  \trepro/internal/exec\t0.738s", "", sample{}, false},
		{"PASS", "", sample{}, false},
	}
	for _, c := range cases {
		name, got, ok := parseBenchLine(c.line)
		if ok != c.ok || name != c.name || got != c.want {
			t.Errorf("parseBenchLine(%q) = %q %+v %v, want %q %+v %v", c.line, name, got, ok, c.name, c.want, c.ok)
		}
	}
}

func TestParseBaseline(t *testing.T) {
	cases := []struct {
		line    string
		name    string
		want    sample
		ok, bad bool
	}{
		{"BenchmarkBulkInsert       30", "BenchmarkBulkInsert", sample{allocs: 30, bytes: -1}, true, false},
		{"BenchmarkScanTemplates/region_join 1010 1640000", "BenchmarkScanTemplates/region_join",
			sample{allocs: 1010, bytes: 1640000}, true, false},
		{"  # internal/store: CSV loader", "", sample{}, false, false},
		{"", "", sample{}, false, false},
		{"BenchmarkBulkInsert", "", sample{}, false, true},
		{"BenchmarkBulkInsert 30 40 50", "", sample{}, false, true},
		{"BenchmarkBulkInsert thirty", "", sample{}, false, true},
		{"BenchmarkBulkInsert 30 -1", "", sample{}, false, true},
	}
	for _, c := range cases {
		name, got, ok, err := parseBaseline(c.line)
		if (err != nil) != c.bad || ok != c.ok || name != c.name || got != c.want {
			t.Errorf("parseBaseline(%q) = %q %+v %v %v, want %q %+v %v (error: %v)",
				c.line, name, got, ok, err, c.name, c.want, c.ok, c.bad)
		}
	}
}
