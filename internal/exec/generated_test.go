package exec_test

import (
	"encoding/binary"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/iql"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
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
	for _, tg := range genTargets(t) {
		t.Run(tg.name, func(t *testing.T) {
			loaded, resealed, gen := tg.loaded, tg.resealed, tg.gen
			r := rand.New(rand.NewSource(28))
			seen := map[string]int{}
			for i := range perSchema {
				q := gen.Generate(r, r.Intn(7))
				stmt, err := generatedStmt(q, loaded.Schema)
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

// generatedStmt is the SQL a generated query runs as: ToSQL's, with
// its ORDER BY, if it has one, extended by every output column. Rows
// the ORDER BY ties may come in any order, and a LIMIT may cut between
// them; ordered by every output column after it, only rows alike in
// all of them tie, so the answer is one row for row.
func generatedStmt(q *iql.Query, s *schema.Schema) (*sql.SelectStmt, error) {
	stmt, err := iql.ToSQL(q, s)
	if err != nil || len(stmt.OrderBy) == 0 {
		return stmt, err
	}
	for _, it := range stmt.Items {
		stmt.OrderBy = append(stmt.OrderBy, sql.OrderItem{Expr: it.Expr})
	}
	return stmt, nil
}

// genTarget is one database, as loaded and resealed into 100-row
// segments, with a Generator over it: what TestGeneratedDialect draws
// from and runs over.
type genTarget struct {
	name             string
	loaded, resealed *store.Snapshot
	gen              *bench.Generator
}

// genTargets is every bundled database at scale 1 and the library
// under testdata/library, a schema no part of the engine was written
// for, loaded from its DDL and CSVs the way OpenDir loads a user's: a
// many-to-many table (book_authors), a foreign-key chain (loans →
// books → publishers) and a NULL-able column (loans.fine).
func genTargets(t testing.TB) []genTarget {
	var dbs []*store.DB
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	src, err := os.ReadFile("testdata/library/schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sql.ParseSchema("library", string(src))
	if err != nil {
		t.Fatal(err)
	}
	lib := store.NewDB(s)
	if err := lib.LoadCSVDir("testdata/library"); err != nil {
		t.Fatal(err)
	}
	var out []genTarget
	for _, db := range append(dbs, lib) {
		loaded := db.Snapshot()
		setSegmentRows(db, 100)
		out = append(out, genTarget{db.Schema.Name, loaded, db.Snapshot(), bench.NewGenerator(loaded)})
	}
	return out
}

// byteSource is a rand.Source that reads its draws from b, eight bytes
// big-endian a draw, the low bit dropped; past the end of b every draw
// is 0. A Generator drawing from it makes the choices b spells out.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	var x [8]byte
	s.b = s.b[copy(x[:], s.b):]
	return int64(binary.BigEndian.Uint64(x[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}

// recordingSource hands on src's draws and appends each to out in the
// form byteSource reads them back in.
type recordingSource struct {
	src rand.Source
	out []byte
}

func (s *recordingSource) Int63() int64 {
	v := s.src.Int63()
	s.out = binary.BigEndian.AppendUint64(s.out, uint64(v)<<1)
	return v
}

func (s *recordingSource) Seed(seed int64) { s.src.Seed(seed) }

// FuzzIQL is TestGeneratedDialect driven by coverage: the fuzz bytes
// are the random stream bench.Generator draws from (byteSource). The
// first byte picks the database and whether it runs as loaded or
// resealed; the rest is the stream, which draws the query's depth
// first, as TestGeneratedDialect does. The query, through ToSQL, is
// compiled and run at degrees 1 and 4 and must equal the reference
// executor (differentialStmt). The seed corpus is TestGeneratedDialect's
// first queries of each database, their draws recorded.
func FuzzIQL(f *testing.F) {
	targets := genTargets(f)
	const seeds = 40
	for d, tg := range targets {
		rec := &recordingSource{src: rand.NewSource(28)}
		r := rand.New(rec)
		for i := range seeds {
			rec.out = []byte{byte(d + len(targets)*(i%2))}
			tg.gen.Generate(r, r.Intn(7))
			f.Add(rec.out)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tg := targets[int(data[0])%len(targets)]
		sn := tg.loaded
		if int(data[0])/len(targets)%2 == 1 {
			sn = tg.resealed
		}
		r := rand.New(&byteSource{data[1:]})
		q := tg.gen.Generate(r, r.Intn(7))
		stmt, err := generatedStmt(q, sn.Schema)
		if err != nil {
			t.Fatalf("ToSQL: %v\nquery: %s", err, q)
		}
		differentialStmt(t, sn, stmt, diffOpts{pars: []int{1, 4}, ordered: len(stmt.OrderBy) > 0})
		if t.Failed() {
			t.Logf("query: %s", q)
		}
	})
}

// TestExchangeFeedsOnlyFoldingAggregate pins where Parallelize puts
// workers: on an aggregate with no DISTINCT call, which folds inside
// them, and nowhere else — so no batch outlives its pull. Every plan of
// the gold corpus (university and sales at scales 1, 4 and 10, geo at
// its one scale) and of TestGeneratedDialect's generated corpus,
// compiled at degree 4, must give workers to no aggregate that calls
// DISTINCT, and fan out (Plan.Par > 1) exactly when one aggregate has
// workers; the corpus must hold at least one such plan.
func TestExchangeFeedsOnlyFoldingAggregate(t *testing.T) {
	fanned := 0
	check := func(sn *store.Snapshot, stmt *sql.SelectStmt) {
		t.Helper()
		p, err := exec.Compile(sn, stmt, 4)
		if err != nil {
			t.Fatalf("%v\nsql: %s", err, stmt)
		}
		folding := 0
		plan.Walk(p.Root, func(n plan.Node) {
			if a, ok := n.(*plan.Aggregate); ok && a.Workers > 1 {
				folding++
				if callsDistinct(a) {
					t.Errorf("an aggregate that calls DISTINCT has workers:\n%s\nsql: %s", p.Explain(), stmt)
				}
			}
		})
		if folding > 1 || (p.Par > 1) != (folding == 1) {
			t.Errorf("Par %d, %d aggregates with workers:\n%s\nsql: %s", p.Par, folding, p.Explain(), stmt)
		}
		fanned += folding
	}
	for _, name := range dataset.Names() {
		scales := []int{1}
		if name == "university" || name == "sales" {
			scales = []int{1, 4, 10}
		}
		for _, scale := range scales {
			db, err := dataset.ByName(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			sn := db.Snapshot()
			for _, cs := range bench.Corpus(name) {
				if cs.Gold != "" {
					check(sn, sql.MustParse(cs.Gold))
				}
			}
		}
	}
	perSchema := 2000
	if raceEnabled {
		perSchema = 300
	}
	for _, tg := range genTargets(t) {
		r := rand.New(rand.NewSource(28))
		for i := range perSchema {
			stmt, err := generatedStmt(tg.gen.Generate(r, r.Intn(7)), tg.loaded.Schema)
			if err != nil {
				t.Fatal(err)
			}
			sn := tg.loaded
			if i%2 == 1 {
				sn = tg.resealed
			}
			check(sn, stmt)
		}
	}
	if fanned == 0 {
		t.Fatal("no plan fans out; the pin is vacuous")
	}
}

// callsDistinct reports whether an item, sort key or HAVING of a calls
// an aggregate over DISTINCT values.
func callsDistinct(a *plan.Aggregate) bool {
	distinct := false
	visit := func(e sql.Expr) bool {
		if fc, ok := e.(*sql.FuncCall); ok && fc.Distinct {
			distinct = true
		}
		return !distinct
	}
	for _, e := range append(append(a.Items[:len(a.Items):len(a.Items)], a.SortKeys...), a.Having) {
		sql.Walk(e, visit)
	}
	return distinct
}
