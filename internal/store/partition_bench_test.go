package store

import (
	"fmt"
	"sync"
	"testing"
)

// partitionBenchRows builds the BenchmarkBulkInsert fixture: 5000 rows
// whose id column (the partition key) is dense, so hash routing spreads
// them across every partition.
func partitionBenchRows(n int) []Row {
	src := make([]Row, n)
	for i := range src {
		src[i] = Row{
			Int(int64(i)), Int(int64(1700000000 + i/8)),
			Text(fmt.Sprintf("svc-%02d", i%24)), Float(float64(i%250) + 0.5),
		}
	}
	return src
}

// BenchmarkPartitionedBulkInsert measures the routed bulk path — the
// per-row partition routing plus one copy-on-write publish per touched
// partition — against the same fixture BenchmarkBulkInsert loads into
// a single stream. Routing reuses one key scratch buffer, so the
// partitioned path must stay within a small constant of the
// single-stream allocs/op, not a per-row multiple. Feeds the CI
// alloc-regression guard (cmd/allocguard).
func BenchmarkPartitionedBulkInsert(b *testing.B) {
	src := partitionBenchRows(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(loaderBenchSchema())
		if err := db.PartitionTable("events", HashPartition("id", 8)); err != nil {
			b.Fatal(err)
		}
		if err := db.BulkInsert("events", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionedParallelLoad measures the contended shape the
// partition layer exists for: 4 loaders bulk-inserting concurrently
// into the 8-way partitioned table, overlapping on disjoint partition
// locks. Allocations are per-op totals across all loaders; the guard
// catches a per-batch or per-row allocation sneaking into the routed
// publish path.
func BenchmarkPartitionedParallelLoad(b *testing.B) {
	const loaders = 4
	src := partitionBenchRows(5000)
	var chunks [][]Row
	for lo := 0; lo < len(src); lo += 500 {
		chunks = append(chunks, src[lo:lo+500])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(loaderBenchSchema())
		if err := db.PartitionTable("events", HashPartition("id", 8)); err != nil {
			b.Fatal(err)
		}
		t := db.Table("events")
		var wg sync.WaitGroup
		for w := 0; w < loaders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := w; c < len(chunks); c += loaders {
					if err := t.BulkInsert(chunks[c]); err != nil {
						b.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Snap().Len() != len(src) {
			b.Fatalf("loaded %d rows, want %d", t.Snap().Len(), len(src))
		}
	}
}
