package exec_test

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/store"
)

// floatSumEdges are the values a float64 accumulator gets wrong in
// some order: cancellation at 1e308 scale and of 0.1, 2^53 ± 1, the
// int64 extremes as floats, subnormals, signed zeros, and the values
// that never enter an exact sum's digits.
var floatSumEdges = []float64{
	0, math.Copysign(0, -1), 0.1, -0.1, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 3e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// floatSum is the oracle for one group: the exact sum in math/big,
// infinities and NaN apart, rounded once, over n values.
type floatSum struct {
	sum                   *big.Float
	n                     int64
	posInf, negInf, isNaN bool
}

func (s *floatSum) add(f float64) {
	s.n++
	switch {
	case math.IsNaN(f):
		s.isNaN = true
	case math.IsInf(f, 1):
		s.posInf = true
	case math.IsInf(f, -1):
		s.negInf = true
	default:
		s.sum.Add(s.sum, new(big.Float).SetFloat64(f))
	}
}

func (s *floatSum) value() float64 {
	switch {
	case s.isNaN || s.posInf && s.negInf:
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	}
	f, _ := s.sum.Float64()
	return f + 0
}

// TestFloatSumExactProperty: SUM and AVG over a FLOAT column are the
// exact sum rounded once — AVG that sum divided by the count — grouped
// and not, in the reference executor and at parallelism 1, 2 and 4,
// where the sum folds per worker and the partials merge. The tables
// fill more than one batch, so the aggregate gets workers, and are cut
// into 8-row segments, so morsels are many and short.
func TestFloatSumExactProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := schema.MustNew("floatsum", []*schema.Table{{Name: "t", Columns: []schema.Column{
		{Name: "g", Type: schema.Int}, {Name: "x", Type: schema.Float},
	}}}, nil)
	for trial := 0; trial < 40; trial++ {
		specials := trial%2 == 1
		draw := func() store.Value {
			switch r.Intn(8) {
			case 0:
				return store.Null()
			case 1, 2:
				f := floatSumEdges[r.Intn(len(floatSumEdges))]
				if !specials && (math.IsInf(f, 0) || math.IsNaN(f)) {
					f = 0.1
				}
				return store.Float(f)
			case 3:
				return store.Float(math.Ldexp(r.Float64(), r.Intn(2000)-1000))
			}
			return store.Float(r.NormFloat64() * 1000)
		}
		db := store.NewDB(s)
		rows := make([]store.Row, 1100+r.Intn(1100))
		groups := map[int64]*floatSum{}
		total := &floatSum{sum: new(big.Float).SetPrec(2200)}
		for i := range rows {
			g := int64(r.Intn(4))
			rows[i] = store.Row{store.Int(g), draw()}
			if groups[g] == nil {
				groups[g] = &floatSum{sum: new(big.Float).SetPrec(2200)}
			}
			if x := rows[i][1]; !x.IsNull() {
				f, _ := x.AsFloat()
				groups[g].add(f)
				total.add(f)
			}
		}
		db.MustBulkInsert("t", rows)
		db.Table("t").SetSegmentRows(8)
		sn := db.Snapshot()

		check := func(q string, want func(row store.Row) *floatSum) {
			for _, run := range differential(t, sn, q, diffOpts{pars: []int{1, 2, 4}, ordered: true}) {
				if run.par > 1 && !strings.Contains(run.plan.Explain(), perWorker) {
					t.Fatalf("par=%d: the sum does not fold per worker:\n%s", run.par, run.plan.Explain())
				}
				for _, row := range run.res.Rows {
					w := want(row)
					sum, avg := row[len(row)-2], row[len(row)-1]
					if w.n == 0 {
						if !sum.IsNull() || !avg.IsNull() {
							t.Errorf("trial %d par=%d: %s: row %v over no values, want NULLs", trial, run.par, q, row)
						}
						continue
					}
					gotSum, _ := sum.AsFloat()
					gotAvg, _ := avg.AsFloat()
					wantSum := w.value()
					if math.Float64bits(gotSum) != math.Float64bits(wantSum) ||
						math.Float64bits(gotAvg) != math.Float64bits(wantSum/float64(w.n)) {
						t.Errorf("trial %d par=%d: %s: row %v, want SUM %v AVG %v", trial, run.par, q, row, wantSum, wantSum/float64(w.n))
					}
				}
			}
		}
		check("SELECT SUM(x), AVG(x) FROM t", func(store.Row) *floatSum { return total })
		check("SELECT g, SUM(x), AVG(x) FROM t GROUP BY g ORDER BY g",
			func(row store.Row) *floatSum { return groups[row[0].Int64()] })
	}
}
