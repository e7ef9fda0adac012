package exec_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// rowPathLayout fills the fixture's key columns so that their sealed
// segments take one encoding: k (INT) and g (TEXT).
type rowPathLayout struct {
	name string
	k    func(i int) int64
	g    func(i int) string
	kEnc store.SegEncoding
	gEnc store.SegEncoding
}

var rowPathLayouts = []rowPathLayout{
	// Thirteen values spread over 2^43: no narrow frame, no runs.
	{"plain", func(i int) int64 { return int64((i*7)%13)<<40 - 1<<45 },
		func(i int) string { return fmt.Sprintf("g%02d", (i*7)%37) }, store.SegPlain, store.SegPlain},
	{"dict", func(i int) int64 { return int64((i*7)%13)<<40 - 1<<45 },
		func(i int) string { return fmt.Sprintf("g%02d", (i*3)%5) }, store.SegPlain, store.SegDict},
	{"rle", func(i int) int64 { return int64(i / 24) },
		func(i int) string { return fmt.Sprintf("g%02d", (i*7)%37) }, store.SegRLE, store.SegPlain},
	{"for", func(i int) int64 { return int64((i*7)%13) - 6 },
		func(i int) string { return fmt.Sprintf("g%02d", (i*3)%5) }, store.SegFOR, store.SegDict},
}

// rowPathFloats cycles NULL, NaN and both zeros through t.v, with
// repeats for DISTINCT to fold.
var rowPathFloats = []store.Value{
	store.Float(1.5), store.Null(), store.Float(math.NaN()), store.Float(0),
	store.Float(math.Copysign(0, -1)), store.Float(2.5), store.Float(-1), store.Float(1.5),
}

// rowPathDB builds t (1,200 rows over 64-row segments, more than one
// batch, so its pipelines run under an exchange) and u (40 rows,
// NULL keys, LIKE patterns in w and keys shared with t) under one
// layout.
func rowPathDB(t *testing.T, l rowPathLayout) *store.DB {
	t.Helper()
	s := schema.MustNew("rowpath", []*schema.Table{
		{Name: "t", Columns: []schema.Column{
			{Name: "id", Type: schema.Int}, {Name: "k", Type: schema.Int},
			{Name: "g", Type: schema.Text}, {Name: "v", Type: schema.Float},
			{Name: "n", Type: schema.Int},
		}},
		{Name: "u", Columns: []schema.Column{
			{Name: "id", Type: schema.Int}, {Name: "k", Type: schema.Int},
			{Name: "w", Type: schema.Text},
		}},
	}, nil)
	db := store.NewDB(s)
	trows := make([]store.Row, 1200)
	for i := range trows {
		n := store.Int(int64(i % 5))
		if i%6 == 0 {
			n = store.Null()
		}
		trows[i] = store.Row{store.Int(int64(i)), store.Int(l.k(i)), store.Text(l.g(i)),
			rowPathFloats[i%len(rowPathFloats)], n}
	}
	urows := make([]store.Row, 40)
	for i := range urows {
		k := store.Int(int64(i % 7))
		if i%9 == 4 {
			k = store.Null()
		}
		w := l.g(i * 5)
		switch i % 4 {
		case 1:
			w = w[:2] + "%"
		case 2:
			w = w[:len(w)-1] + "_"
		}
		urows[i] = store.Row{store.Int(int64(i)), k, store.Text(w)}
	}
	db.MustBulkInsert("t", trows)
	db.MustBulkInsert("u", urows)
	db.Table("t").SetSegmentRows(64)
	db.Table("u").SetSegmentRows(16)
	for ci, want := range map[int]store.SegEncoding{1: l.kEnc, 2: l.gEnc} {
		if got := db.Snapshot().Table("t").Segments().Segs[0].Cols()[ci].Enc; got != want {
			t.Fatalf("%s fixture: t column %d sealed as %v, want %v", l.name, ci, got, want)
		}
	}
	return db
}

// rowPathCase is one statement of the corpus; ordered marks SQL whose
// ORDER BY fixes the whole row order. serial runs at parallelism 1
// only: under an exchange the cross-join guard bounds each morsel's
// product, not the whole one the reference bounds.
type rowPathCase struct {
	sql     string
	ordered bool
	serial  bool
}

// rowPathCorpus is hand-written SQL for every construct the vectorized
// planner used to hand to a row-at-a-time executor and now runs:
// DISTINCT aggregates, uncorrelated subqueries of every kind, cross
// joins and a bare column outside GROUP BY. What it does not run is in
// rowPathUnsupported.
var rowPathCorpus = []rowPathCase{
	// DISTINCT aggregates over NULL, NaN and ±0.0, grouped and not,
	// empty input included.
	{"SELECT COUNT(DISTINCT v), SUM(DISTINCT v), AVG(DISTINCT v), MIN(DISTINCT v), MAX(DISTINCT v) FROM t", true, false},
	{"SELECT COUNT(DISTINCT n), SUM(DISTINCT n), AVG(DISTINCT n), MIN(DISTINCT g), MAX(DISTINCT k) FROM t", true, false},
	{"SELECT k, COUNT(DISTINCT n), SUM(DISTINCT n), AVG(DISTINCT v), MIN(DISTINCT g), MAX(DISTINCT n) FROM t GROUP BY k ORDER BY k", true, false},
	{"SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v), MIN(DISTINCT v), MAX(DISTINCT v) FROM t GROUP BY g ORDER BY g", true, false},
	{"SELECT COUNT(DISTINCT n), SUM(DISTINCT v), AVG(DISTINCT n), MIN(DISTINCT g), MAX(DISTINCT v) FROM t WHERE id < 0", true, false},
	{"SELECT k, COUNT(DISTINCT n) FROM t WHERE id < 0 GROUP BY k", false, false},
	{"SELECT g, COUNT(DISTINCT k) FROM t GROUP BY g HAVING COUNT(DISTINCT k) > 2 ORDER BY COUNT(DISTINCT k) DESC, g", true, false},
	{"SELECT g, COUNT(DISTINCT id) FROM t GROUP BY g ORDER BY COUNT(DISTINCT id) DESC, g LIMIT 1", true, false},
	{"SELECT COUNT(DISTINCT t.id) FROM t, u WHERE t.n = u.k AND u.id < 20", true, false},
	{"SELECT COUNT(*), COUNT(DISTINCT n), MIN(n) FROM t WHERE v > 0", true, false},

	// Scalar subqueries returning zero rows, one row, or more (an
	// error, but only once a row needs the value).
	{"SELECT id FROM t WHERE n > (SELECT k FROM u WHERE id < 0)", false, false},
	{"SELECT id, (SELECT k FROM u WHERE id < 0) FROM t WHERE id < 3 ORDER BY id", true, false},
	{"SELECT id FROM t WHERE n = (SELECT k FROM u WHERE id = 3) ORDER BY id", true, false},
	{"SELECT id, n - (SELECT AVG(k) FROM u) FROM t WHERE id < 20 ORDER BY id", true, false},
	{"SELECT id FROM t WHERE k > (SELECT k FROM u)", false, false},
	{"SELECT id FROM t WHERE id < 0 AND k > (SELECT k FROM u)", false, false},
	{"SELECT id, (SELECT w FROM u) FROM t WHERE id < 3", false, false},

	// IN / NOT IN over subqueries with NULLs on either side.
	{"SELECT id FROM t WHERE n IN (SELECT k FROM u) ORDER BY id", true, false},
	{"SELECT id FROM t WHERE n NOT IN (SELECT k FROM u) ORDER BY id", true, false},
	{"SELECT id FROM t WHERE n NOT IN (SELECT k FROM u WHERE k IS NOT NULL) ORDER BY id", true, false},
	{"SELECT id FROM t WHERE n IN (SELECT k FROM u WHERE id < 0) ORDER BY id", true, false},
	{"SELECT id FROM t WHERE n NOT IN (SELECT k FROM u WHERE id < 0) ORDER BY id", true, false},
	{"SELECT id FROM t WHERE id IN (SELECT id, k FROM u)", false, false},

	// EXISTS / NOT EXISTS.
	{"SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM u WHERE k > 3)", true, false},
	{"SELECT COUNT(*) FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE k > 30)", true, false},
	{"SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM u WHERE k > 30)", true, false},

	// A scalar subquery in HAVING.
	{"SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > (SELECT COUNT(*) FROM u WHERE k = 1) ORDER BY k", true, false},

	// Cross joins, and one over MaxProduct.
	{"SELECT t.id, u.id FROM t, u WHERE t.id < 5 AND u.id < 4 ORDER BY t.id, u.id", true, false},
	{"SELECT a.g, b.w FROM t a, u b WHERE a.id < 3", false, false},
	{"SELECT COUNT(*), SUM(t.n), MIN(u.w) FROM t, u", true, false},
	{"SELECT t.id, u.id FROM t, u WHERE t.n = 1 AND u.k = 2 ORDER BY t.id, u.id", true, false},
	{"SELECT COUNT(*) FROM t a, u b, t c", true, true},

	// A bare column that is not in the GROUP BY takes the group's first
	// row.
	{"SELECT k, g, COUNT(*) FROM t GROUP BY k ORDER BY k", true, false},
	{"SELECT g, v, n, COUNT(*) FROM t GROUP BY g ORDER BY g", true, false},
	{"SELECT g, COUNT(*) FROM t", true, false},
	{"SELECT g, COUNT(*) FROM t WHERE id < 0", true, false},
	{"SELECT k, COUNT(*) FROM t GROUP BY k HAVING g <> 'g00' ORDER BY k", true, false},
}

// unsupportedCase is a statement the planned executor declines with
// ErrUnsupported, and what the reference executor answers it with
// under each layout: a digest of its rows (rowsDigest).
type unsupportedCase struct {
	sql     string
	ordered bool
	want    map[string]string
}

// rowPathUnsupported is the rest of the former row path's corpus:
// correlated subqueries in IN, EXISTS, the select list, WHERE and
// HAVING, cross-kind comparisons, NOT over an int and LIKE against a
// column. The front end emits none of them; the reference executor
// answers them all.
var rowPathUnsupported = []unsupportedCase{
	{"SELECT id FROM t WHERE n IN (SELECT u.k FROM u WHERE u.w = t.g) ORDER BY id", true, map[string]string{
		"plain": "74 rows 7273b06272771856", "dict": "200 rows 0d2182f16c6b3a6b",
		"rle": "74 rows 7273b06272771856", "for": "200 rows 0d2182f16c6b3a6b"}},
	{"SELECT id FROM t WHERE n NOT IN (SELECT u.k FROM u WHERE u.w = t.g) ORDER BY id", true, map[string]string{
		"plain": "871 rows 85352828751c8f59", "dict": "800 rows 3691ac07817aacfa",
		"rle": "871 rows 85352828751c8f59", "for": "800 rows 3691ac07817aacfa"}},
	{"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.w = t.g AND u.k > t.n) ORDER BY id", true, map[string]string{
		"plain": "242 rows 69d3cc497d9b6ad5", "dict": "200 rows 0d2182f16c6b3a6b",
		"rle": "242 rows 69d3cc497d9b6ad5", "for": "200 rows 0d2182f16c6b3a6b"}},
	{"SELECT id FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.w = t.g) ORDER BY id", true, map[string]string{
		"plain": "550 rows 247cbc9e53f2aed5", "dict": "960 rows 5f075b519aa9e1e9",
		"rle": "550 rows 247cbc9e53f2aed5", "for": "960 rows 5f075b519aa9e1e9"}},
	{"SELECT id, (SELECT COUNT(*) FROM u WHERE u.w = t.g) FROM t ORDER BY id", true, map[string]string{
		"plain": "1200 rows c165e7502820e741", "dict": "1200 rows c8da28305a98d6df",
		"rle": "1200 rows c165e7502820e741", "for": "1200 rows c8da28305a98d6df"}},
	{"SELECT id, (SELECT MAX(u.k) FROM u WHERE u.w = t.g) FROM t ORDER BY id", true, map[string]string{
		"plain": "1200 rows ce5a817e657f42c1", "dict": "1200 rows 2d4b5c1da9708b7b",
		"rle": "1200 rows ce5a817e657f42c1", "for": "1200 rows 2d4b5c1da9708b7b"}},
	{"SELECT id FROM t WHERE n > (SELECT AVG(u.k) FROM u WHERE u.w = t.g) ORDER BY id", true, map[string]string{
		"plain": "169 rows 8a24d40481b8f851", "dict": "0 rows cbf29ce484222325",
		"rle": "169 rows 8a24d40481b8f851", "for": "0 rows cbf29ce484222325"}},
	{"SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > (SELECT COUNT(*) FROM u WHERE u.w = t.g) ORDER BY g", true, map[string]string{
		"plain": "37 rows 5e9314bc564b0ca7", "dict": "5 rows f072fc846aa70eab",
		"rle": "37 rows 5e9314bc564b0ca7", "for": "5 rows f072fc846aa70eab"}},
	{"SELECT id FROM t WHERE g = k", false, map[string]string{
		"plain": "0 rows cbf29ce484222325", "dict": "0 rows cbf29ce484222325",
		"rle": "0 rows cbf29ce484222325", "for": "0 rows cbf29ce484222325"}},
	{"SELECT id FROM t WHERE g > n ORDER BY id", true, map[string]string{
		"plain": "1000 rows 71058357095ec09e", "dict": "1000 rows 71058357095ec09e",
		"rle": "1000 rows 71058357095ec09e", "for": "1000 rows 71058357095ec09e"}},
	{"SELECT id FROM t WHERE v < g ORDER BY id", true, map[string]string{
		"plain": "1050 rows 26af4bad5ad64f52", "dict": "1050 rows 26af4bad5ad64f52",
		"rle": "1050 rows 26af4bad5ad64f52", "for": "1050 rows 26af4bad5ad64f52"}},
	{"SELECT id FROM t WHERE NOT n ORDER BY id", true, map[string]string{
		"plain": "1000 rows 71058357095ec09e", "dict": "1000 rows 71058357095ec09e",
		"rle": "1000 rows 71058357095ec09e", "for": "1000 rows 71058357095ec09e"}},
	{"SELECT t.id, u.id FROM t, u WHERE t.g LIKE u.w AND u.id < 6 ORDER BY t.id, u.id", true, map[string]string{
		"plain": "876 rows 347f64025bdbd9b1", "dict": "4320 rows fc1cc4447691e94f",
		"rle": "876 rows 347f64025bdbd9b1", "for": "4320 rows fc1cc4447691e94f"}},
	{"SELECT id FROM t WHERE g NOT LIKE g ORDER BY id", true, map[string]string{
		"plain": "0 rows cbf29ce484222325", "dict": "0 rows cbf29ce484222325",
		"rle": "0 rows cbf29ce484222325", "for": "0 rows cbf29ce484222325"}},
}

// rowsDigest fingerprints a result: its row count and an FNV-1a hash of
// its rows' rowKeys, in order when ordered, else sorted.
func rowsDigest(res *exec.Result, ordered bool) string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = rowKey(r)
	}
	if !ordered {
		slices.Sort(keys)
	}
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d rows %016x", len(res.Rows), h.Sum64())
}

// checkUnsupported asserts that the planned executor declines c at
// every degree of pars with ErrUnsupported, from Compile or Run, and
// that the reference executor answers it with the rows pinned for
// layout.
func checkUnsupported(t *testing.T, sn *store.Snapshot, layout string, c unsupportedCase, pars ...int) {
	t.Helper()
	stmt := sql.MustParse(c.sql)
	for _, par := range pars {
		if _, err := compileRun(sn, stmt, par, exec.RunOpts{}); !errors.Is(err, exec.ErrUnsupported) {
			t.Errorf("par=%d: %v, want ErrUnsupported\nsql: %s", par, err, c.sql)
		}
	}
	ref, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		t.Fatalf("reference: %v\nsql: %s", err, c.sql)
	}
	if got := rowsDigest(ref, c.ordered); got != c.want[layout] {
		t.Errorf("reference (%s): %s, want %s\nsql: %s", layout, got, c.want[layout], c.sql)
	}
}

// TestFormerRowPathCorpus runs rowPathCorpus at parallelism 1, 2 and 4
// over plain, dictionary, RLE and FOR segments. Every run must match
// the reference executor as a bag, error for error, and in order
// wherever the SQL fixes one; the parallel runs the serial one row for
// row. Every statement of rowPathUnsupported fails at every degree with
// ErrUnsupported, and the reference answers it as pinned.
func TestFormerRowPathCorpus(t *testing.T) {
	for _, l := range rowPathLayouts {
		sn := rowPathDB(t, l).Snapshot()
		t.Run(l.name, func(t *testing.T) {
			for _, c := range rowPathCorpus {
				o := diffOpts{pars: []int{1, 2, 4}, ordered: c.ordered, mayFail: true}
				if c.serial {
					o.pars = nil
				}
				differential(t, sn, c.sql, o)
			}
			for _, c := range rowPathUnsupported {
				checkUnsupported(t, sn, l.name, c, 1, 2, 4)
			}
		})
	}
}
