package exec_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/store"
)

// TestVecDifferentialCorpus runs every gold query of the full
// benchmark corpus (all domains) at parallelism 1 and 4: typed hash
// keys, selection vectors, batch kernels and the per-row fallback must
// never change results, and the exchange never the serial row order.
func TestVecDifferentialCorpus(t *testing.T) {
	for _, domain := range dataset.Names() {
		corpusDifferential(t, domain, 1, 0, diffOpts{pars: []int{1, 4}})
	}
}

// TestVecDifferentialScaled repeats the reference check at a larger
// scale on the join-heavy university corpus.
func TestVecDifferentialScaled(t *testing.T) {
	corpusDifferential(t, "university", 2, 0, diffOpts{})
}

// TestVecFallback pins where the kernels stop: an uncorrelated IN
// subquery and an aggregate over a subquery-filtered join run, each
// subquery once, and agree with the reference path; a correlated
// subquery in WHERE, scalar or EXISTS, fails with ErrUnsupported, and
// the reference answers it as pinned.
func TestVecFallback(t *testing.T) {
	sn := dataset.University(1).Snapshot()
	for _, q := range []string{
		"SELECT name FROM students WHERE dept_id IN (SELECT dept_id FROM departments WHERE name = 'Computer Science')",
		"SELECT d.name, COUNT(*) FROM students s, departments d WHERE s.dept_id = d.dept_id " +
			"AND s.gpa > (SELECT AVG(gpa) FROM students) GROUP BY d.name ORDER BY d.name",
	} {
		differential(t, sn, q, diffOpts{})
	}
	for _, c := range []unsupportedCase{
		{"SELECT name FROM students WHERE gpa > (SELECT AVG(gpa) FROM students s2 WHERE s2.dept_id = students.dept_id)",
			false, map[string]string{"university": "63 rows 85aeb4f4c8cef537"}},
		{"SELECT name FROM departments d WHERE EXISTS (SELECT 1 FROM students s WHERE s.dept_id = d.dept_id AND s.gpa > 3.9)",
			false, map[string]string{"university": "4 rows 7578d8d7013188df"}},
	} {
		checkUnsupported(t, sn, "university", c, 1)
	}
}

// TestVecAggBigIntExact: vectorized MIN/MAX over integers must compare
// exactly, like the row path's int store.Compare — a float64 round-trip
// collapses distinct values beyond 2^53.
func TestVecAggBigIntExact(t *testing.T) {
	s := schema.MustNew("big", []*schema.Table{{
		Name: "t",
		Columns: []schema.Column{
			{Name: "a", Type: schema.Int},
		},
	}}, nil)
	db := store.NewDB(s)
	big := int64(1 << 53)
	// Insertion order matters: the larger value first would win a
	// first-of-float-equals MIN.
	db.MustInsert("t", store.Int(big+1))
	db.MustInsert("t", store.Int(big))
	for _, q := range []string{
		"SELECT MIN(a) FROM t",
		"SELECT MAX(a) FROM t",
	} {
		differential(t, db.Snapshot(), q, diffOpts{ordered: true})
	}
}
