package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// Metamorphic fuzzing of the executor over the corpus schemas:
// randomized single-table queries are checked not against golden
// outputs but against invariants that must hold between *related*
// queries — so the generator needs no oracle beyond the executor
// itself plus the naive reference path:
//
//  1. differential: the planned executor and ReferenceQueryAt agree (bag
//     equality) on every generated query;
//  2. filter monotonicity: AND-ing any additional conjunct onto WHERE
//     never grows the result bag;
//  3. LIMIT prefix: LIMIT n is exactly the first n rows of LIMIT n+k;
//  4. COUNT consistency: COUNT(*) equals the number of rows the
//     unaggregated query returns.
//
// All queries run against one pinned snapshot per check, so the
// invariants also exercise snapshot stability.

// qgen generates random but schema-valid query fragments.
type qgen struct {
	r  *rand.Rand
	sn *store.Snapshot
	t  *schema.Table
}

// sampleValue picks a literal from the live data of column ci (so
// generated predicates are frequently satisfied), formatted for SQL.
// ok is false when no usable sample exists.
func (g *qgen) sampleValue(ci int) (string, bool) {
	tab := g.sn.Table(g.t.Name)
	if tab.Len() == 0 {
		return "", false
	}
	ss := tab.Segments()
	for try := 0; try < 8; try++ {
		si, off := ss.Locate(g.r.Intn(tab.Len()))
		v := ss.Segs[si].Cols()[ci].Value(off)
		if v.IsNull() {
			continue
		}
		switch g.t.Columns[ci].Type {
		case schema.Int, schema.Float:
			return v.String(), true
		case schema.Bool:
			return v.String(), true
		default:
			s := v.Str()
			if strings.ContainsAny(s, "'\\\n") {
				continue
			}
			return "'" + s + "'", true
		}
	}
	return "", false
}

// predicate builds one random conjunct over the generator's table.
func (g *qgen) predicate() (string, bool) {
	ci := g.r.Intn(len(g.t.Columns))
	col := g.t.Columns[ci]
	lit, ok := g.sampleValue(ci)
	if !ok {
		return "", false
	}
	switch col.Type {
	case schema.Int, schema.Float:
		switch g.r.Intn(5) {
		case 0:
			return fmt.Sprintf("%s = %s", col.Name, lit), true
		case 1:
			return fmt.Sprintf("%s <= %s", col.Name, lit), true
		case 2:
			return fmt.Sprintf("%s > %s", col.Name, lit), true
		case 3:
			lit2, ok2 := g.sampleValue(ci)
			if !ok2 {
				return "", false
			}
			return fmt.Sprintf("%s BETWEEN %s AND %s", col.Name, lit, lit2), true
		default:
			return fmt.Sprintf("NOT (%s > %s)", col.Name, lit), true
		}
	case schema.Bool: // the filter takes a BOOL column as it is; IN over one is unsupported
		if lit == "true" {
			return col.Name, true
		}
		return "NOT " + col.Name, true
	default:
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%s = %s", col.Name, lit), true
		case 1:
			return fmt.Sprintf("%s <> %s", col.Name, lit), true
		default:
			return fmt.Sprintf("%s LIKE '%%'", col.Name), true // every non-NULL value
		}
	}
}

// projection picks 1-3 column names (or *).
func (g *qgen) projection() string {
	if g.r.Intn(4) == 0 {
		return "*"
	}
	n := 1 + g.r.Intn(3)
	cols := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cols = append(cols, g.t.Columns[g.r.Intn(len(g.t.Columns))].Name)
	}
	return strings.Join(cols, ", ")
}

// subBag reports whether a is contained in b as multisets.
func subBag(a, b map[string]int) bool {
	for k, n := range a {
		if b[k] < n {
			return false
		}
	}
	return true
}

func mustQueryAt(t *testing.T, sn *store.Snapshot, q string) *exec.Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q)
	}
	res, err := exec.Query(sn, stmt)
	if err != nil {
		t.Fatalf("executing %s: %v", q, err)
	}
	return res
}

// TestMetamorphicCorpus runs the metamorphic battery over every corpus
// domain with a fixed seed (deterministic in CI; bump iterations
// locally to dig).
func TestMetamorphicCorpus(t *testing.T) {
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		sn := db.Snapshot()
		r := rand.New(rand.NewSource(42))
		for iter := 0; iter < 60; iter++ {
			tbl := db.Schema.Tables[r.Intn(len(db.Schema.Tables))]
			if sn.Table(tbl.Name).Len() == 0 {
				continue
			}
			g := &qgen{r: r, sn: sn, t: tbl}

			pred, ok := g.predicate()
			if !ok {
				continue
			}
			base := fmt.Sprintf("SELECT %s FROM %s WHERE %s", g.projection(), tbl.Name, pred)

			// 1. Differential vs the reference executor.
			differential(t, sn, base, diffOpts{})

			// 2. Adding a conjunct never grows the result.
			if extra, ok := g.predicate(); ok {
				narrowed := mustQueryAt(t, sn,
					fmt.Sprintf("SELECT %s FROM %s WHERE (%s) AND (%s)",
						"*", tbl.Name, pred, extra))
				wide := mustQueryAt(t, sn, fmt.Sprintf("SELECT * FROM %s WHERE %s", tbl.Name, pred))
				if len(narrowed.Rows) > len(wide.Rows) {
					t.Errorf("%s: filter grew results: %d -> %d rows\npred: %s AND %s",
						domain, len(wide.Rows), len(narrowed.Rows), pred, extra)
				}
				if !subBag(bag(narrowed), bag(wide)) {
					t.Errorf("%s: narrowed result not a sub-bag\npred: %s AND %s", domain, pred, extra)
				}
			}

			// 3. LIMIT n is a prefix of LIMIT n+k under a total order.
			ord := tbl.Columns[r.Intn(len(tbl.Columns))].Name
			n, k := 1+r.Intn(5), 1+r.Intn(5)
			small := mustQueryAt(t, sn,
				fmt.Sprintf("SELECT * FROM %s WHERE %s ORDER BY %s LIMIT %d", tbl.Name, pred, ord, n))
			big := mustQueryAt(t, sn,
				fmt.Sprintf("SELECT * FROM %s WHERE %s ORDER BY %s LIMIT %d", tbl.Name, pred, ord, n+k))
			if len(small.Rows) > len(big.Rows) {
				t.Fatalf("%s: LIMIT %d returned more rows than LIMIT %d", domain, n, n+k)
			}
			for i := range small.Rows {
				for c := range small.Rows[i] {
					if store.Compare(small.Rows[i][c], big.Rows[i][c]) != 0 {
						t.Fatalf("%s: LIMIT %d is not a prefix of LIMIT %d at row %d\n%s",
							domain, n, n+k, i, base)
					}
				}
			}

			// 4. COUNT(*) equals the unaggregated row count.
			cnt := mustQueryAt(t, sn, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", tbl.Name, pred))
			rows := mustQueryAt(t, sn, fmt.Sprintf("SELECT * FROM %s WHERE %s", tbl.Name, pred))
			got, _ := cnt.Rows[0][0].AsFloat()
			if int(got) != len(rows.Rows) {
				t.Errorf("%s: COUNT(*) = %d but query returns %d rows\npred: %s",
					domain, int(got), len(rows.Rows), pred)
			}
		}

		// 5. Every BOOL column filters in both forms the generator
		// writes, whatever the seed draws: `col` and `NOT col` agree
		// with the reference and split the column's non-NULL rows.
		for _, tbl := range db.Schema.Tables {
			for _, col := range tbl.Columns {
				if col.Type != schema.Bool {
					continue
				}
				var split int
				for _, pred := range []string{col.Name, "NOT " + col.Name} {
					differential(t, sn, fmt.Sprintf("SELECT * FROM %s WHERE %s", tbl.Name, pred), diffOpts{})
					split += len(mustQueryAt(t, sn, fmt.Sprintf("SELECT * FROM %s WHERE %s", tbl.Name, pred)).Rows)
				}
				cnt := mustQueryAt(t, sn, fmt.Sprintf("SELECT COUNT(%s) FROM %s", col.Name, tbl.Name))
				if got, _ := cnt.Rows[0][0].AsFloat(); int(got) != split {
					t.Errorf("%s: %s and NOT %s return %d rows between them, COUNT(%s) = %d",
						domain, col.Name, col.Name, split, col.Name, int(got))
				}
			}
		}
	}
}
