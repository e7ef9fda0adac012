package exec_test

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// segBenchPlan compiles one query over a 100K-row event log and hands
// back a closure that runs it on the pinned snapshot, with the segment
// layout built outside the timed region.
func segBenchPlan(b *testing.B, query string) func() (*exec.Result, error) {
	b.Helper()
	db := dataset.Events(100_000)
	sn := db.Snapshot()
	stmt := sql.MustParse(query)
	p, err := exec.Compile(sn, stmt, 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func() (*exec.Result, error) { return exec.Run(context.Background(), sn, p, exec.RunOpts{}) }
	if _, err := run(); err != nil { // warm-up: builds the segment layout
		b.Fatal(err)
	}
	return run
}

// BenchmarkSegScanDictFilter pins the allocation budget of the
// decode-free scan path: a dictionary-equality filter plus count over
// every segment (no zone skipping), where text batches are views of
// dictionary codes and int batches decode per batch. Guarded by
// cmd/allocguard in CI.
func BenchmarkSegScanDictFilter(b *testing.B) {
	run := segBenchPlan(b, "SELECT COUNT(*) FROM events WHERE level = 'error'")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegScanZoneSkip measures the selective clustered-predicate
// scan — most segments are skipped from zone maps alone, so allocs/op
// must stay far below the full-scan budget.
func BenchmarkSegScanZoneSkip(b *testing.B) {
	run := segBenchPlan(b,
		"SELECT COUNT(*) FROM events WHERE ts BETWEEN 1700006000 AND 1700006250")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
