package exec_test

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// intSumEdges are the values where a float64 accumulator goes wrong:
// around 2^53, where consecutive integers stop being representable, and
// the int64 extremes, where an int64 accumulator wraps.
var intSumEdges = []int64{
	0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), -(1 << 53),
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// TestIntSumExactProperty: SUM and AVG over an INT column equal exact
// big-integer arithmetic — SUM the exact int64, or the SUM overflows INT
// error when the exact value leaves int64; AVG the exact sum rounded
// once to float64, divided by the count — grouped and not, serially, in
// parallel and in the reference executor.
func TestIntSumExactProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := schema.MustNew("intsum", []*schema.Table{{Name: "t", Columns: []schema.Column{
		{Name: "g", Type: schema.Int}, {Name: "x", Type: schema.Int},
	}}}, nil)
	wide := false
	draw := func() store.Value {
		edges := intSumEdges[:8]
		if wide {
			edges = intSumEdges
		}
		switch r.Intn(8) {
		case 0:
			return store.Null()
		case 1, 2:
			return store.Int(r.Int63n(2000) - 1000)
		case 3:
			if wide {
				return store.Int(int64(r.Uint64()))
			}
			return store.Int(r.Int63n(1<<54) - 1<<53)
		}
		return store.Int(edges[r.Intn(len(edges))])
	}
	type want struct {
		sum   *big.Int
		count int64
	}
	for trial := 0; trial < 300; trial++ {
		// Every other trial stays near 2^53, where sums fit in int64.
		wide = trial%2 == 1
		db := store.NewDB(s)
		n := r.Intn(40)
		rows := make([]store.Row, n)
		groups := map[int64]*want{}
		total := &want{sum: new(big.Int)}
		for i := range rows {
			g := int64(r.Intn(3))
			rows[i] = store.Row{store.Int(g), draw()}
			if groups[g] == nil {
				groups[g] = &want{sum: new(big.Int)}
			}
			if x := rows[i][1]; !x.IsNull() {
				for _, w := range []*want{groups[g], total} {
					w.sum.Add(w.sum, big.NewInt(x.Int64()))
					w.count++
				}
			}
		}
		db.MustBulkInsert("t", rows)
		db.Table("t").SetSegmentRows(8)
		sn := db.Snapshot()

		check := func(q string, wants func(i int, row store.Row) *want) {
			stmt := sql.MustParse(q)
			overflows := false
			for _, w := range groups {
				overflows = overflows || !w.sum.IsInt64()
			}
			if !strings.Contains(q, "GROUP BY") {
				overflows = !total.sum.IsInt64()
			}
			runs := map[string]func() (*exec.Result, error){
				"reference": func() (*exec.Result, error) { return exec.ReferenceQueryAt(sn, stmt) },
			}
			for _, par := range []int{1, 2} {
				runs["par="+strconv.Itoa(par)] = func() (*exec.Result, error) {
					return compileRun(sn, stmt, par, exec.RunOpts{})
				}
			}
			for name, run := range runs {
				res, err := run()
				if overflows {
					if err == nil || !strings.Contains(err.Error(), "SUM overflows INT") {
						t.Errorf("trial %d %s: %s: error %v, want SUM overflows INT", trial, name, q, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("trial %d %s: %s: %v", trial, name, q, err)
					continue
				}
				for i, row := range res.Rows {
					w := wants(i, row)
					sum, avg := row[len(row)-2], row[len(row)-1]
					if w.count == 0 {
						if !sum.IsNull() || !avg.IsNull() {
							t.Errorf("trial %d %s: %s: row %v over no values, want NULLs", trial, name, q, row)
						}
						continue
					}
					f, _ := new(big.Float).SetInt(w.sum).Float64()
					wantAvg := f / float64(w.count)
					gotAvg, _ := avg.AsFloat()
					if sum.Kind() != store.KindInt || sum.Int64() != w.sum.Int64() ||
						avg.Kind() != store.KindFloat || math.Float64bits(gotAvg) != math.Float64bits(wantAvg) {
						t.Errorf("trial %d %s: %s: row %v, want SUM %s AVG %v", trial, name, q, row, w.sum, wantAvg)
					}
				}
			}
		}
		check("SELECT SUM(x), AVG(x) FROM t", func(int, store.Row) *want { return total })
		check("SELECT g, SUM(x), AVG(x) FROM t GROUP BY g ORDER BY g",
			func(_ int, row store.Row) *want { return groups[row[0].Int64()] })
	}
}
