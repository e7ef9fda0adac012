package exec_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/iql"
	"repro/internal/sql"
)

// TestGeneratedDialect runs seeded random IQL queries (bench.Generator)
// through ToSQL, as the engine does with a reading, over each bundled
// database at scale 1 — as loaded and resealed into 100-row segments,
// so dictionary, frame-of-reference and zone-skipping scans run too —
// and requires each to compile planned (an ErrUnsupported names a gap
// in the dialect) and to equal the reference executor, compiled and
// through the template path the engine plans by (parameterized,
// prepared and bound), at degrees 1 and 4. It is the net under the
// operators whose memory the run's arena owns: group tables, key sets,
// build tables and batch headers. A mismatch is a failing test to fix,
// never a seed to change. Every form the generator builds must come up
// in each schema's draw.
func TestGeneratedDialect(t *testing.T) {
	perSchema := 2000
	if raceEnabled {
		// The race detector multiplies the cost of a run several times
		// over; its value here is in the concurrent runs, not the count.
		perSchema = 300
	}
	forms := []string{"SELECT DISTINCT", " GROUP BY ", " HAVING ", " ORDER BY ", " LIMIT ", "(SELECT ",
		" IN (", " LIKE ", " BETWEEN ", "NOT ", "<>", "COUNT(DISTINCT ", "COUNT(*)", "SUM(", "AVG(", "MIN(", "MAX("}
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			db, err := dataset.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			loaded := db.Snapshot()
			setSegmentRows(db, 100)
			resealed := db.Snapshot()
			gen := bench.NewGenerator(loaded)
			r := rand.New(rand.NewSource(28))
			seen := map[string]int{}
			for i := range perSchema {
				q := gen.Generate(r, r.Intn(7))
				stmt, err := iql.ToSQL(q, loaded.Schema)
				if err != nil {
					t.Fatalf("query %d: ToSQL: %v\nquery: %s", i, err, q)
				}
				for _, f := range forms {
					if strings.Contains(stmt.String(), f) {
						seen[f]++
					}
				}
				sn := loaded
				if i%2 == 1 {
					sn = resealed
				}
				if len(stmt.OrderBy) > 0 {
					// Rows the ORDER BY ties may come in any order, and a LIMIT
					// may cut between them: ordered by every output column
					// after it, only rows alike in all of them tie, so the
					// answer is one row for row.
					for _, it := range stmt.Items {
						stmt.OrderBy = append(stmt.OrderBy, sql.OrderItem{Expr: it.Expr})
					}
				}
				differentialStmt(t, sn, stmt, diffOpts{pars: []int{1, 4}, prepared: true, ordered: len(stmt.OrderBy) > 0})
				if t.Failed() {
					t.Fatalf("query %d: %s", i, q)
				}
			}
			for _, f := range forms {
				if seen[f] == 0 {
					t.Errorf("no generated query holds %q", f)
				}
			}
			t.Logf("%d queries; forms: %v", perSchema, seen)
		})
	}
}
