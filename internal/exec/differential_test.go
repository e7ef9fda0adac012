package exec_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// rowKey keys a row for exact comparison: each cell's kind, then a
// float's bit pattern — so -0.0 is not 0.0 and a NaN is only the same
// NaN — or any other value's Key.
func rowKey(r store.Row) string {
	var b []byte
	for _, v := range r {
		b = append(b, byte(v.Kind()))
		if v.Kind() == store.KindFloat {
			f, _ := v.AsFloat()
			b = strconv.AppendUint(b, math.Float64bits(f), 16)
		} else {
			b = v.AppendKey(b)
		}
		b = append(b, '\x1f')
	}
	return string(b)
}

// bag turns a result into a multiset of row keys.
func bag(res *exec.Result) map[string]int {
	out := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		out[rowKey(r)]++
	}
	return out
}

// sameResult is the package's one result comparator: got must have
// want's column count and its rows, cell for cell by rowKey — row for
// row when ordered, else as bags. Execution match admits no tolerance:
// a float summed in another order is a different answer.
func sameResult(got, want *exec.Result, ordered bool) error {
	if len(got.Cols) != len(want.Cols) || len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d columns × %d rows, want %d × %d",
			len(got.Cols), len(got.Rows), len(want.Cols), len(want.Rows))
	}
	if ordered {
		for i, r := range got.Rows {
			if rowKey(r) != rowKey(want.Rows[i]) {
				return fmt.Errorf("row %d is %v, want %v", i, r, want.Rows[i])
			}
		}
		return nil
	}
	counts := bag(want)
	for _, r := range got.Rows {
		k := rowKey(r)
		if counts[k]--; counts[k] < 0 {
			return fmt.Errorf("row %v is not in the wanted bag", r)
		}
	}
	return nil
}

// diffOpts are the axes of one differential besides its snapshot and
// statement.
type diffOpts struct {
	pars     []int               // degrees to compile at, 1 first; nil is {1}
	ordered  bool                // the SQL fixes row order: every run equals the reference row for row
	mayFail  bool                // an error is an answer if the reference fails with the same one
	prepared bool                // run each degree again through Prepare, Bind and RunOpts.Params
	tmpl     *exec.PreparedQuery // with prepared: bind this template instead of preparing one
	counted  bool                // run each degree again with RunOpts.SegC
}

// diffRun is one degree's run, for a caller's side assertions: the plan
// and result of its last run and, when counted, its segment counters.
type diffRun struct {
	par  int
	plan *plan.Plan
	res  *exec.Result
	segc *store.SegCounters
}

// differential is the package's one executor differential. It runs q
// on the reference executor once, then compiles and runs it at each
// degree of o.pars. With o.prepared or o.counted a degree runs a second
// time, through the prepared path and counting segments as asked, and
// that run must equal the first row for row. Every run must equal the
// reference as a bag (row for row when o.ordered) or fail with its
// error, and every degree after the first must equal the first degree's
// run row for row.
func differential(t *testing.T, sn *store.Snapshot, q string, o diffOpts) []diffRun {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("%v\nsql: %s", err, q)
	}
	ref, refErr := exec.ReferenceQueryAt(sn, stmt)
	if refErr != nil && !o.mayFail {
		t.Fatalf("reference: %v\nsql: %s", refErr, q)
	}
	pars := o.pars
	if pars == nil {
		pars = []int{1}
	}
	runs := make([]diffRun, 0, len(pars))
	for _, par := range pars {
		r := diffRun{par: par}
		r.plan, err = exec.Compile(sn, stmt, par)
		if err == nil {
			r.res, err = exec.Run(context.Background(), sn, r.plan, exec.RunOpts{})
		}
		if errText(err) != errText(refErr) {
			t.Fatalf("par=%d: error %v, reference error %v\nsql: %s", par, err, refErr, q)
		}
		if err != nil {
			runs = append(runs, r)
			continue
		}
		if o.prepared || o.counted {
			p, ro := r.plan, exec.RunOpts{}
			if o.prepared {
				pq := o.tmpl
				if pq == nil {
					pq, ro.Params, err = exec.Prepare(sn, stmt, par)
				} else {
					_, ro.Params = sql.Parameterize(stmt)
				}
				if err == nil {
					p, _, err = pq.Bind(sn, ro.Params, par)
				}
				if err != nil {
					t.Fatalf("par=%d: prepare and bind: %v\nsql: %s", par, err, q)
				}
			}
			if o.counted {
				r.segc = new(store.SegCounters)
				ro.SegC = r.segc
			}
			res, err := exec.Run(context.Background(), sn, p, ro)
			if err != nil {
				t.Fatalf("par=%d prepared=%v counted=%v: %v\nsql: %s", par, o.prepared, o.counted, err, q)
			}
			if err := sameResult(res, r.res, true); err != nil {
				t.Errorf("par=%d prepared=%v counted=%v vs the plain run: %v\nsql: %s", par, o.prepared, o.counted, err, q)
			}
			r.plan, r.res = p, res
		}
		if err := sameResult(r.res, ref, o.ordered); err != nil {
			t.Errorf("par=%d vs reference: %v\nsql: %s", par, err, q)
		}
		if len(runs) > 0 {
			if err := sameResult(r.res, runs[0].res, true); err != nil {
				t.Errorf("par=%d vs par=%d: %v\nsql: %s", par, runs[0].par, err, q)
			}
		}
		runs = append(runs, r)
	}
	return runs
}

// errText is an error's message less the prefix naming the package
// that reports it ("plan: ", "exec: "), or "" for no error.
func errText(err error) string {
	if err == nil {
		return ""
	}
	if _, msg, ok := strings.Cut(err.Error(), ": "); ok {
		return msg
	}
	return err.Error()
}

// compileRun compiles stmt at degree par and runs it under o, all on
// the one pinned snapshot.
func compileRun(sn *store.Snapshot, stmt *sql.SelectStmt, par int, o exec.RunOpts) (*exec.Result, error) {
	p, err := exec.Compile(sn, stmt, par)
	if err != nil {
		return nil, err
	}
	return exec.Run(context.Background(), sn, p, o)
}

// corpusDifferential runs differential on every gold query of one
// domain's benchmark corpus, over its dataset at scale, resealed at
// segRows rows a segment unless segRows is 0, and returns the runs.
func corpusDifferential(t *testing.T, domain string, scale, segRows int, o diffOpts) []diffRun {
	t.Helper()
	db, err := dataset.ByName(domain, scale)
	if err != nil {
		t.Fatal(err)
	}
	if segRows > 0 {
		setSegmentRows(db, segRows)
	}
	sn := db.Snapshot()
	var runs []diffRun
	t.Run(fmt.Sprintf("%s,scale=%d,segRows=%d", domain, scale, segRows), func(t *testing.T) {
		for _, cs := range bench.Corpus(domain) {
			runs = append(runs, differential(t, sn, cs.Gold, o)...)
		}
	})
	return runs
}

// TestDifferentialCorpus runs every gold query of the full benchmark
// corpus (all domains) serially against the reference executor. This
// is the planner's end-to-end safety net: pushdown, zone-map skips,
// column pruning and join reordering must never change results.
func TestDifferentialCorpus(t *testing.T) {
	for _, domain := range dataset.Names() {
		corpusDifferential(t, domain, 1, 0, diffOpts{})
	}
}

// TestNullLiteralComparisons: comparisons against a NULL literal must
// reject every row under three-valued logic, zone-map skips included:
// a NULL bound must never widen into "every segment qualifies".
func TestNullLiteralComparisons(t *testing.T) {
	db := dataset.University(1)
	for _, q := range []string{
		"SELECT name FROM students WHERE id = NULL",
		"SELECT name FROM students WHERE id > NULL",
		"SELECT name FROM students WHERE id BETWEEN NULL AND 10",
	} {
		res, err := exec.Query(db.Snapshot(), sql.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: returned %d rows, want 0", q, len(res.Rows))
		}
	}
}

// TestDifferentialScaled repeats the corpus differential at scale 2
// now that no table has an index: key equalities and ranges are plain
// scan filters, over 64-row segments so zone maps skip most of each
// table, serially and at four workers. At scale 4 it adds a
// scan-filter-aggregate, a 4-table filtered join, an aggregate over a
// 3-table join and a DISTINCT projection compared in its ORDER BY.
func TestDifferentialScaled(t *testing.T) {
	corpusDifferential(t, "university", 2, 64, diffOpts{pars: []int{1, 4}})
	sn := dataset.University(4).Snapshot()
	for _, q := range []string{
		"SELECT AVG(gpa), COUNT(*) FROM students WHERE gpa > 2.5",
		"SELECT s.name, c.title FROM students s, enrollments e, courses c, departments d " +
			"WHERE e.student_id = s.id AND e.course_id = c.course_id AND c.dept_id = d.dept_id " +
			"AND d.name = 'Computer Science' AND s.gpa > 3.7",
		"SELECT d.name, COUNT(*) FROM students s, enrollments e, departments d " +
			"WHERE e.student_id = s.id AND s.dept_id = d.dept_id AND s.gpa > 3.5 GROUP BY d.name",
		"SELECT DISTINCT year, dept_id FROM students ORDER BY year, dept_id",
	} {
		differential(t, sn, q, diffOpts{pars: []int{1, 4}, ordered: strings.Contains(q, "ORDER BY")})
	}
}

// TestOneDifferentialOracle pins that every executor differential here
// compares results through sameResult: none of the comparators it
// replaced — sameBag's rounded floats, the kind-blind rowsIdentical and
// sameRows, sameTyped, rowsBitIdentical and its floatBits — is declared
// or named again in a test file of this package, and none calls
// bench.SameResult or the deleted bench.RowsEqual, whose kind-blind
// execution match is the accuracy tables'.
func TestOneDifferentialOracle(t *testing.T) {
	banned := map[string]bool{"sameBag": true, "sameRows": true, "rowsIdentical": true,
		"sameTyped": true, "rowsBitIdentical": true, "floatBits": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if banned[n.Name] {
						t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name)
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "bench" &&
						(n.Sel.Name == "SameResult" || n.Sel.Name == "RowsEqual") {
						t.Errorf("%s: compares through bench.%s", fset.Position(n.Pos()), n.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
