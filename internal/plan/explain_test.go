package plan_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/sql"
)

// TestExplainGolden pins the Explain rendering of optimized plans over
// the university dataset: predicate pushdown, zone-map segment
// counts, column pruning and cost-based join order are all visible
// (and guarded) here.
func TestExplainGolden(t *testing.T) {
	db := dataset.University(1)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{
			name: "point lookup is a filtered scan",
			sql:  "SELECT name FROM students WHERE id = 7",
			want: `
project name
└─ filter (id = 7) [est=12]
   └─ scan students cols=2/5 [est=120 segments=1 skipped=0]`,
		},
		{
			name: "range predicate is a filtered scan",
			sql:  "SELECT name FROM instructors WHERE id BETWEEN 5 AND 10",
			want: `
project name
└─ filter id BETWEEN 5 AND 10 [est=8]
   └─ scan instructors cols=2/5 [est=24 segments=1 skipped=0]`,
		},
		{
			name: "join-heavy query: pushdown, pruning, selective-first join order",
			sql: "SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
				"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
				"AND d.name = 'Computer Science' AND s.gpa > 3.7 ORDER BY s.name LIMIT 5",
			want: `
limit 5
└─ sort by s.name
   └─ project s.name, c.title
      └─ hash join on (e.student_id = s.id) [est=12]
         ├─ filter (s.gpa > 3.7) [est=40]
         │  └─ scan students AS s cols=3/5 [est=120 segments=1 skipped=0]
         └─ hash join on (e.course_id = c.course_id) [est=36] [build]
            ├─ scan enrollments AS e cols=2/3 [est=360 segments=1 skipped=0]
            └─ hash join on (c.dept_id = d.dept_id) [est=4] [build]
               ├─ scan courses AS c cols=3/5 [est=36 segments=1 skipped=0]
               └─ filter (d.name = 'Computer Science') [est=1] [build]
                  └─ scan departments AS d cols=2/4 [est=6 segments=1 skipped=0]`,
		},
		{
			name: "aggregation with HAVING and alias sort",
			sql: "SELECT d.name, AVG(i.salary) AS avg_sal FROM instructors i, departments d " +
				"WHERE i.dept_id = d.dept_id GROUP BY d.name HAVING COUNT(*) > 2 ORDER BY avg_sal DESC",
			want: `
sort by avg_sal desc
└─ aggregate d.name, AVG(i.salary) group by d.name having (COUNT(*) > 2)
   └─ hash join on (i.dept_id = d.dept_id) [est=24]
      ├─ scan instructors AS i cols=2/5 [est=24 segments=1 skipped=0]
      └─ scan departments AS d cols=2/4 [est=6 segments=1 skipped=0] [build]`,
		},
		{
			name: "distinct projection prunes to one column",
			sql:  "SELECT DISTINCT dept_id FROM students",
			want: `
distinct
└─ project dept_id
   └─ scan students cols=1/5 [est=120 segments=1 skipped=0]`,
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
