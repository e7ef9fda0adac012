// The root package's one benchmark: the join-heavy university
// questions whose allocations cmd/allocguard bounds in CI
// (ci/alloc-baselines.txt). Every other bar is a Go test next to the
// code it gates, and speed is the question benchmark's (benchmark/).
package nli

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// BenchmarkF5JoinHeavy measures join-heavy queries at dataset scale 4
// through the streaming planner (exec.Query) and the seed-style
// materializing executor (exec.ReferenceQueryAt). The planned/reference
// pairs quantify what predicate pushdown and cost-based join ordering
// buy on multi-table equi-joins.
func BenchmarkF5JoinHeavy(b *testing.B) {
	db := dataset.University(4)
	queries := []struct {
		name, query string
		parallel    bool // an aggregate heavy enough that the rewrite must give it workers
	}{
		// It returns rows, so it runs serially at any degree.
		{"join4", "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7", false},
		{"join3agg", "SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name", true},
		// A key lookup scans 480 students, which fill no batch, so it
		// runs serially at any degree.
		{"pointjoin", "SELECT s.name, d.name FROM students s, departments d " +
			"WHERE s.dept_id = d.dept_id AND s.id = 7", false},
	}
	// The parallel worker degree: hardware width, but at least 4 so the
	// worker machinery is exercised (and regressions fail loudly)
	// even on small CI boxes.
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4
	}
	for _, q := range queries {
		stmt := sql.MustParse(q.query)
		b.Run(q.name+"/planned", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Query(db.Snapshot(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Compiles per iteration exactly like /planned above, so the
		// two series differ only in execution strategy.
		b.Run(q.name+"/planned-parallel", func(b *testing.B) {
			p, err := exec.Compile(db.Snapshot(), stmt, par)
			if err != nil {
				b.Fatal(err)
			}
			if got := p.Par > 1; got != q.parallel {
				b.Fatalf("%s: fans out over workers=%v, want %v", q.name, got, q.parallel)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn := db.Snapshot()
				p, err := exec.Compile(sn, stmt, par)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.ReferenceQueryAt(db.Snapshot(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
