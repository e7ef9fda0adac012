package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
)

func loaderBenchSchema() *schema.Schema {
	return schema.MustNew("csvbench", []*schema.Table{{
		Name: "events",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "ts", Type: schema.Int},
			{Name: "service", Type: schema.Text},
			{Name: "latency", Type: schema.Float},
		},
	}}, nil)
}

func loaderBenchCSV(rows int) []byte {
	var buf bytes.Buffer
	buf.WriteString("id,ts,service,latency\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d,%d,svc-%02d,%d.5\n", i, 1700000000+i/8, i%24, 1+i%250)
	}
	return buf.Bytes()
}

// BenchmarkLoadCSVHinted measures the loader as OpenDir runs it,
// through LoadCSVDir on a file: the row-count hint comes from the file
// size, so the staging slice and the cell arenas are preallocated and
// allocs/op is a handful of arena chunks plus the csv reader's own
// records rather than one Row per line and slice-growth copies. The
// companion BenchmarkLoadCSVUnhinted is the before-shape (a reader with
// no Stat, so no hint); the gap between the two is what the
// preallocation buys. Both feed the CI alloc-regression guard
// (cmd/allocguard).
func BenchmarkLoadCSVHinted(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "events.csv"), loaderBenchCSV(5000), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(loaderBenchSchema())
		if err := db.LoadCSVDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadCSVUnhinted(b *testing.B) {
	data := loaderBenchCSV(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(loaderBenchSchema())
		if _, err := db.LoadCSV("events", bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkBenchRows builds n rows of the loader benchmark's table.
func bulkBenchRows(n int) []Row {
	src := make([]Row, n)
	for i := range src {
		src[i] = Row{
			Int(int64(i)), Int(int64(1700000000 + i/8)),
			Text(fmt.Sprintf("svc-%02d", i%24)), Float(float64(i%250) + 0.5),
		}
	}
	return src
}

// BenchmarkBulkInsert measures the bulk path on prebuilt rows — the
// loader's second half, isolated from CSV parsing. 5,000 rows stay in
// the tail: the cells are checked and written straight into four
// plain typed columns, so what it allocates is those columns and a
// version's headers, nothing per row.
func BenchmarkBulkInsert(b *testing.B) {
	src := bulkBenchRows(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(loaderBenchSchema())
		if err := db.BulkInsert("events", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkInsertSeal measures a load that seals: two full
// default-size chunks, each transposed into plain columns and encoded
// (FOR ids and timestamps, a dictionary for the service, plain floats)
// on its own worker before the one publish. What it allocates is per
// chunk and per column; a per-row allocation in sealing would add
// 131,072.
func BenchmarkBulkInsertSeal(b *testing.B) {
	src := bulkBenchRows(2 * DefaultSegmentRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(loaderBenchSchema())
		if err := db.BulkInsert("events", src); err != nil {
			b.Fatal(err)
		}
	}
}
