package plan_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/sql"
)

// TestExplainGolden pins the Explain rendering of optimized plans over
// the university dataset: access-path choice, predicate pushdown,
// column pruning and cost-based join order are all visible (and
// guarded) here.
func TestExplainGolden(t *testing.T) {
	db := dataset.University(1)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{
			name: "point lookup uses the primary-key index",
			sql:  "SELECT name FROM students WHERE id = 7",
			want: `
project name [vec]
└─ index scan students (id = 7) cols=2/5 [est=1] [vec]`,
		},
		{
			name: "range predicate uses the ordered index",
			sql:  "SELECT name FROM instructors WHERE id BETWEEN 5 AND 10",
			want: `
project name [vec]
└─ index scan instructors (id in [5, 10]) cols=2/5 [est=6] [vec]`,
		},
		{
			name: "join-heavy query: pushdown, pruning, selective-first join order",
			sql: "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
				"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
				"AND d.name = 'Computer Science' AND s.gpa > 3.7 ORDER BY s.name LIMIT 5",
			want: `
limit 5 [vec]
└─ sort by s.name [vec]
   └─ project s.name, c.title [vec]
      └─ hash join on (e.student_id = s.id) [est=12] [vec]
         ├─ filter (s.gpa > 3.7) [est=40] [vec]
         │  └─ scan students AS s cols=3/5 [est=120 segments=1 skipped=0] [vec]
         └─ hash join on (e.course_id = c.course_id) [est=36] [build] [vec]
            ├─ scan enrollments AS e cols=2/3 [est=360 segments=1 skipped=0] [vec]
            └─ hash join on (c.dept_id = d.dept_id) [est=4] [build] [vec]
               ├─ scan courses AS c cols=3/5 [est=36 segments=1 skipped=0] [vec]
               └─ filter (d.name = 'Computer Science') [est=1] [build] [vec]
                  └─ scan departments AS d cols=2/4 [est=6 segments=1 skipped=0] [vec]`,
		},
		{
			name: "aggregation with HAVING and alias sort",
			sql: "SELECT d.name, AVG(i.salary) AS avg_sal FROM instructors i, departments d " +
				"WHERE i.dept_id = d.dept_id GROUP BY d.name HAVING COUNT(*) > 2 ORDER BY avg_sal DESC",
			want: `
sort by avg_sal desc [vec]
└─ aggregate d.name, AVG(i.salary) group by d.name having (COUNT(*) > 2) [vec]
   └─ hash join on (i.dept_id = d.dept_id) [est=24] [vec]
      ├─ scan instructors AS i cols=2/5 [est=24 segments=1 skipped=0] [vec]
      └─ scan departments AS d cols=2/4 [est=6 segments=1 skipped=0] [build] [vec]`,
		},
		{
			name: "distinct projection prunes to one column",
			sql:  "SELECT DISTINCT dept_id FROM students",
			want: `
distinct [vec]
└─ project dept_id [vec]
   └─ scan students cols=1/5 [est=120 segments=1 skipped=0] [vec]`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := plan.Compile(db.Snapshot(), sql.MustParse(c.sql))
			if err != nil {
				t.Fatal(err)
			}
			got := p.Explain()
			want := strings.TrimPrefix(c.want, "\n")
			if got != want {
				t.Errorf("explain mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestExplainNaiveGolden pins the pre-optimizer shape so the rewrite
// (filter split, pushdown, reorder) stays observable in one diff.
func TestExplainNaiveGolden(t *testing.T) {
	db := dataset.University(1)
	stmt := sql.MustParse("SELECT d.name, AVG(i.salary) AS avg_sal FROM instructors i, departments d " +
		"WHERE i.dept_id = d.dept_id GROUP BY d.name HAVING COUNT(*) > 2 ORDER BY avg_sal DESC")
	p, err := plan.Build(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimPrefix(`
sort by avg_sal desc [vec]
└─ aggregate d.name, AVG(i.salary) group by d.name having (COUNT(*) > 2) [vec]
   └─ filter (i.dept_id = d.dept_id) [est=144] [vec]
      └─ hash join on (i.dept_id = d.dept_id) [est=144] [vec]
         ├─ scan instructors AS i [est=24] [vec]
         └─ scan departments AS d [est=6] [build] [vec]`, "\n")
	if got := p.Explain(); got != want {
		t.Errorf("naive explain mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Optimize must transform the naive plan into the Compile result.
	opt, err := plan.Optimize(db.Snapshot(), p)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := plan.Compile(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Explain() != compiled.Explain() {
		t.Errorf("Optimize(Build) != Compile\n--- optimize ---\n%s\n--- compile ---\n%s",
			opt.Explain(), compiled.Explain())
	}
}
