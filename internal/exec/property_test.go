package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sql"
)

// randSelect builds a random but well-formed single-table query over
// the students fixture table.
func randSelect(r *rand.Rand) *sql.SelectStmt {
	cols := []string{"id", "name", "dept_id", "gpa"}
	stmt := sql.NewSelect()
	stmt.From = []sql.TableRef{{Table: "students"}}
	stmt.Items = []sql.SelectItem{{Expr: sql.Col("", cols[r.Intn(len(cols))])}}
	if r.Intn(2) == 0 {
		stmt.Distinct = true
	}
	switch r.Intn(4) {
	case 0:
		stmt.Where = sql.Cmp(sql.OpGt, sql.Col("", "gpa"), sql.Number(float64(r.Intn(5))))
	case 1:
		stmt.Where = sql.Cmp(sql.OpLe, sql.Col("", "id"), sql.Number(float64(r.Intn(6))))
	case 2:
		lo := float64(r.Intn(4))
		stmt.Where = &sql.BetweenExpr{X: sql.Col("", "gpa"), Lo: sql.Number(lo), Hi: sql.Number(lo + 0.5),
			Negated: r.Intn(2) == 0}
	}
	if r.Intn(2) == 0 {
		stmt.OrderBy = []sql.OrderItem{{Expr: sql.Col("", cols[r.Intn(len(cols))]), Desc: r.Intn(2) == 0}}
	}
	if r.Intn(3) == 0 {
		stmt.Limit = r.Intn(7)
	}
	return stmt
}

// TestExecutorInvariants checks structural invariants over hundreds of
// random queries: row counts respect LIMIT, DISTINCT yields a set,
// WHERE output is a subset of the unfiltered output, and printing then
// reparsing the query gives identical results.
func TestExecutorInvariants(t *testing.T) {
	db := fixture(t)
	r := rand.New(rand.NewSource(4711))
	for i := 0; i < 500; i++ {
		stmt := randSelect(r)
		res, err := Query(db.Snapshot(), stmt)
		if err != nil {
			t.Fatalf("query %s failed: %v", stmt, err)
		}
		if stmt.Limit >= 0 && len(res.Rows) > stmt.Limit {
			t.Fatalf("%s returned %d rows over LIMIT %d", stmt, len(res.Rows), stmt.Limit)
		}
		if stmt.Distinct {
			seen := map[string]bool{}
			for _, row := range res.Rows {
				k := rowKey(row)
				if seen[k] {
					t.Fatalf("%s returned duplicate row under DISTINCT", stmt)
				}
				seen[k] = true
			}
		}
		if stmt.Where != nil && stmt.Limit < 0 {
			unfiltered := *stmt
			unfiltered.Where = nil
			all, err := Query(db.Snapshot(), &unfiltered)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) > len(all.Rows) {
				t.Fatalf("%s: filtered %d > unfiltered %d", stmt, len(res.Rows), len(all.Rows))
			}
		}
		// Round-trip through the printer.
		reparsed, err := sql.Parse(stmt.String())
		if err != nil {
			t.Fatalf("printed form does not reparse: %s: %v", stmt, err)
		}
		res2, err := Query(db.Snapshot(), reparsed)
		if err != nil {
			t.Fatalf("reparsed query failed: %v", err)
		}
		if len(res2.Rows) != len(res.Rows) {
			t.Fatalf("round trip changed results for %s", stmt)
		}
		for j := range res.Rows {
			if rowKey(res.Rows[j]) != rowKey(res2.Rows[j]) {
				t.Fatalf("round trip changed row %d for %s", j, stmt)
			}
		}
	}
}

// TestAggregationInvariants checks COUNT/SUM/AVG/MIN/MAX coherence on
// random filters: COUNT(col) <= COUNT(*), MIN <= AVG <= MAX, and
// SUM = AVG * COUNT (within float tolerance).
func TestAggregationInvariants(t *testing.T) {
	db := fixture(t)
	for cutoff := 0; cutoff <= 5; cutoff++ {
		q := fmt.Sprintf("SELECT COUNT(*), COUNT(gpa), MIN(gpa), MAX(gpa), AVG(gpa), SUM(gpa) "+
			"FROM students WHERE id <= %d", cutoff)
		res := run(t, db, q)
		row := res.Rows[0]
		countStar := row[0].Int64()
		countCol := row[1].Int64()
		if countCol > countStar {
			t.Fatalf("cutoff %d: COUNT(col) %d > COUNT(*) %d", cutoff, countCol, countStar)
		}
		if countCol == 0 {
			for i := 2; i <= 5; i++ {
				if !row[i].IsNull() {
					t.Fatalf("cutoff %d: aggregate %d not NULL on empty input", cutoff, i)
				}
			}
			continue
		}
		minV, _ := row[2].AsFloat()
		maxV, _ := row[3].AsFloat()
		avgV, _ := row[4].AsFloat()
		sumV, _ := row[5].AsFloat()
		if minV > avgV || avgV > maxV {
			t.Fatalf("cutoff %d: MIN %v <= AVG %v <= MAX %v violated", cutoff, minV, avgV, maxV)
		}
		if diff := sumV - avgV*float64(countCol); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cutoff %d: SUM %v != AVG*N %v", cutoff, sumV, avgV*float64(countCol))
		}
	}
}

// TestJoinCommutative checks that FROM order does not change join
// results (the planner may reorder; semantics must not).
func TestJoinCommutative(t *testing.T) {
	db := fixture(t)
	a := run(t, db, "SELECT s.name, d.name FROM students s, departments d "+
		"WHERE s.dept_id = d.dept_id ORDER BY s.name, d.name")
	b := run(t, db, "SELECT s.name, d.name FROM departments d, students s "+
		"WHERE s.dept_id = d.dept_id ORDER BY s.name, d.name")
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if rowKey(a.Rows[i]) != rowKey(b.Rows[i]) {
			t.Fatalf("row %d differs between join orders", i)
		}
	}
}

// TestSubqueryConsistency: x IN (SELECT ...) must agree with the
// equivalent correlated EXISTS formulation, which only the reference
// executor runs.
func TestSubqueryConsistency(t *testing.T) {
	db := fixture(t)
	in := run(t, db, "SELECT name FROM students WHERE id IN "+
		"(SELECT student_id FROM enrollments WHERE grade = 'B') ORDER BY name")
	q := "SELECT name FROM students s WHERE EXISTS " +
		"(SELECT * FROM enrollments e WHERE e.student_id = s.id AND e.grade = 'B') ORDER BY name"
	exists := reference(t, db, q)
	wantUnsupported(t, db, q)
	if len(in.Rows) != len(exists.Rows) {
		t.Fatalf("IN %v != EXISTS %v", names(in), names(exists))
	}
	for i := range in.Rows {
		if in.Rows[i][0].Str() != exists.Rows[i][0].Str() {
			t.Fatalf("IN %v != EXISTS %v", names(in), names(exists))
		}
	}
}
