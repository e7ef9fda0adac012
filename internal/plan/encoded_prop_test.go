package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// Property test for the encoded-int column form: whatever a kernel or
// an operator helper computes from a segment column travelling encoded
// (FOR deltas, RLE runs) must equal what it computes from that
// column's DecodeInts output. The expected side of every predicate is
// computed here in plain Go from the decoded values, with the generic
// kernels' semantics spelled out: INT against INT compares integers,
// anything against a FLOAT compares float64s.

// encShape is one way of filling an int column, named for the
// encoding it should seal into.
type encShape struct {
	name string
	gen  func(r *rand.Rand, i int) int64
	enc  store.SegEncoding
}

func encShapes(r *rand.Rand) []encShape {
	base8, base16, base32 := r.Int63n(2000)-1000, -r.Int63n(1<<40), r.Int63n(1<<50)
	return []encShape{
		{"plain", func(r *rand.Rand, i int) int64 { return (r.Int63() - 1<<62) * 2 }, store.SegPlain},
		{"for8", func(r *rand.Rand, i int) int64 { return base8 + r.Int63n(200) }, store.SegFOR},
		{"for16", func(r *rand.Rand, i int) int64 { return base16 + r.Int63n(50_000) }, store.SegFOR},
		{"for32", func(r *rand.Rand, i int) int64 { return base32 + r.Int63n(1<<31) }, store.SegFOR},
		// Near the ends of int64, where float64(x) rounds across
		// neighbouring integers and interval arithmetic could overflow.
		{"for8-top", func(r *rand.Rand, i int) int64 { return math.MaxInt64 - r.Int63n(250) }, store.SegFOR},
		{"for16-bottom", func(r *rand.Rand, i int) int64 { return math.MinInt64 + r.Int63n(60_000) }, store.SegFOR},
		{"rle", func(r *rand.Rand, i int) int64 { return int64(i/19) - 40 }, store.SegRLE},
	}
}

// encSegments builds a table with one column per shape, NULLs at the
// given density in each, sealed at segRows, and returns the columns of
// every sealed segment keyed by shape.
func encSegments(t *testing.T, r *rand.Rand, segRows int, nullEvery int) (shapes []encShape, segs [][]*store.SegCol) {
	t.Helper()
	shapes = encShapes(r)
	cols := make([]schema.Column, len(shapes))
	for i := range shapes {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Int}
	}
	db := store.NewDB(schema.MustNew("enc", []*schema.Table{{Name: "t", Columns: cols}}, nil))
	db.Table("t").SetSegmentRows(segRows)
	n := 3*segRows + 17
	rows := make([]store.Row, n)
	for i := range rows {
		row := make(store.Row, len(shapes))
		for c, sh := range shapes {
			row[c] = store.Int(sh.gen(r, i))
			if nullEvery > 0 && r.Intn(nullEvery) == 0 {
				row[c] = store.Null()
			}
		}
		rows[i] = row
	}
	db.MustBulkInsert("t", rows)
	for _, seg := range db.Snapshot().Table("t").Segments().Segs {
		if seg.Sealed {
			segs = append(segs, seg.MustCols())
		}
	}
	if len(segs) != 3 {
		t.Fatalf("fixture: %d sealed segments, want 3", len(segs))
	}
	return shapes, segs
}

// probeConsts returns constants worth comparing a column holding vals
// against: members, their neighbours, fractions between them, values
// beyond the column's range on both sides, the ends of int64 and of
// float64.
func probeConsts(r *rand.Rand, vals []int64) []store.Value {
	v := vals[r.Intn(len(vals))]
	min, max := vals[0], vals[0]
	for _, x := range vals {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	cs := []store.Value{
		store.Int(v), store.Int(v - 1), store.Int(v + 1), store.Int(min - 1), store.Int(max + 1),
		store.Int(-v), store.Int(0), store.Int(math.MinInt64), store.Int(math.MaxInt64),
		store.Float(float64(v)), store.Float(float64(v) + 0.5), store.Float(float64(v) - 0.25),
		store.Float(-float64(v) - 0.5), store.Float(float64(min) - 1.5), store.Float(float64(max) + 1.5),
		store.Float(math.Nextafter(float64(v), math.Inf(1))), store.Float(math.Nextafter(float64(v), math.Inf(-1))),
		store.Float(-1e30), store.Float(1e30), store.Float(math.Inf(-1)), store.Float(math.Inf(1)),
		store.Float(0x1p63), store.Float(-0x1p63), store.Float(math.NaN()),
	}
	return cs
}

var cmpOps = []sql.BinOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

// wantCmp is  x OP c  under the generic kernels' semantics.
func wantCmp(op sql.BinOp, x int64, c store.Value) bool {
	if c.Kind() == store.KindInt {
		return cmpOpInt(op, x, c.Int64())
	}
	f, _ := c.AsFloat()
	return cmpOpFloat(op, float64(x), f)
}

// wantBetween is  x BETWEEN lo AND hi  likewise.
func wantBetween(x int64, lo, hi store.Value) bool {
	if lo.Kind() == store.KindInt && hi.Kind() == store.KindInt {
		return x >= lo.Int64() && x <= hi.Int64()
	}
	lf, _ := lo.AsFloat()
	hf, _ := hi.AsFloat()
	return float64(x) >= lf && float64(x) <= hf
}

// passing lists the selected rows a Filter over pc would keep.
func passing(pc *vcol, n int, sel []int32) []int32 {
	var out []int32
	(&vbatch{n: n, sel: sel}).forSel(func(i int) {
		if pc.kind == store.KindBool && !pc.null(i) && pc.bools[i] {
			out = append(out, int32(i))
		}
	})
	return out
}

func randSel(r *rand.Rand, n int) []int32 {
	if r.Intn(3) == 0 {
		return nil
	}
	keep := 1 + r.Intn(4)
	sel := []int32{}
	for i := 0; i < n; i++ {
		if r.Intn(keep) == 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

func TestEncodedKernelsEqualDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(20261002))
	rel := &Rel{Width: 1, Bindings: []Binding{{Name: "t", Cols: []int{0},
		Meta: &schema.Table{Name: "t", Columns: []schema.Column{{Name: "x", Type: schema.Int}}}}}}
	x := sql.Col("", "x")
	compile := func(e sql.Expr) vexpr {
		t.Helper()
		ve, ok := compileRelWith(rel, nil).compile(e)
		if !ok {
			t.Fatalf("%s does not vectorize", e)
		}
		if _, ok := ve.(*vnumrange); !ok {
			t.Fatalf("%s compiled to %T, want the constant-bounds test", e, ve)
		}
		return ve
	}
	encodedSeen := map[string]bool{}
	for round := 0; round < 8; round++ {
		segRows := 50 + r.Intn(2950)
		nullEvery := []int{0, 2, 9, 200}[round%4]
		shapes, segs := encSegments(t, r, segRows, nullEvery)
		for _, cols := range segs {
			for c, sh := range shapes {
				sc := cols[c]
				// Dense NULLs break value runs, and the column falls back to FOR.
				if sc.Enc != sh.enc && !(sh.enc == store.SegRLE && (nullEvery == 2 || nullEvery == 9)) {
					t.Fatalf("fixture: %s column sealed as %v", sh.name, sc.Enc)
				}
				for w := 0; w < 3; w++ {
					lo := r.Intn(sc.N)
					hi := lo + 1 + r.Intn(min(sc.N-lo, maxBatch))
					n := hi - lo
					enc := segWindowCol(sc, lo, hi, nil)
					if enc.seg != nil {
						encodedSeen[sh.name] = true
					}
					dec := vcol{kind: store.KindInt, ints: sc.DecodeInts(lo, hi, nil), nulls: sc.NullMask(lo, hi, nil)}
					at := fmt.Sprintf("%s segRows=%d nulls=1/%d window=[%d,%d)", sh.name, segRows, nullEvery, lo, hi)
					sel := randSel(r, n)
					batch := func() *vbatch { return &vbatch{n: n, cols: []vcol{enc}} }

					consts := probeConsts(r, dec.ints)
					for _, k := range consts {
						lit := sql.Literal{Val: k}
						for _, op := range cmpOps {
							for _, flipped := range []bool{false, true} {
								e, wop := sql.Cmp(op, x, lit), op
								if flipped {
									e, wop = sql.Cmp(op, lit, x), flipCmp(op)
								}
								pc := compile(e).eval(batch())
								want := vcol{kind: store.KindBool, bools: make([]bool, n), nulls: dec.nulls}
								for i, v := range dec.ints {
									want.bools[i] = wantCmp(wop, v, k)
								}
								if got, exp := passing(&pc, n, sel), passing(&want, n, sel); !slices.Equal(got, exp) {
									t.Fatalf("%s: %s keeps %v, decoded keeps %v", at, e, got, exp)
								}
							}
						}
					}
					for b := 0; b < 24; b++ {
						klo, khi := consts[r.Intn(len(consts))], consts[r.Intn(len(consts))]
						neg := r.Intn(2) == 0
						e := &sql.BetweenExpr{X: x, Lo: sql.Literal{Val: klo}, Hi: sql.Literal{Val: khi}, Negated: neg}
						pc := compile(e).eval(batch())
						want := vcol{kind: store.KindBool, bools: make([]bool, n), nulls: dec.nulls}
						for i, v := range dec.ints {
							want.bools[i] = wantBetween(v, klo, khi) != neg
						}
						if got, exp := passing(&pc, n, sel), passing(&want, n, sel); !slices.Equal(got, exp) {
							t.Fatalf("%s: %s keeps %v, decoded keeps %v", at, e, got, exp)
						}
					}

					// Point readers and bulk readers of the column itself.
					for i := 0; i < n; i++ {
						if g, w := enc.value(i), dec.value(i); g.Key() != w.Key() {
							t.Fatalf("%s: value(%d) = %s, decoded %s", at, i, g, w)
						}
					}
					idxs := randSel(r, n)
					if idxs == nil {
						idxs = []int32{int32(n - 1), 0, int32(n / 2), 0} // any order, repeats
					}
					ge, gd := gatherCol(&enc, idxs), gatherCol(&dec, idxs)
					sameCol(t, at+": gatherCol", &ge, &gd, len(idxs))
					he, hd := make([]uint64, n), make([]uint64, n)
					hashCol(&enc, n, sel, he, nil)
					hashCol(&dec, n, sel, hd, nil)
					for i := range he {
						if he[i] != hd[i] {
							t.Fatalf("%s: hashCol row %d differs", at, i)
						}
					}
					be, bd := newColbuf(store.KindInt), newColbuf(store.KindInt)
					for _, i := range idxs {
						be.push(&enc, int(i))
						bd.push(&dec, int(i))
					}
					ce, cd := be.col(), bd.col()
					sameCol(t, at+": colbuf.push", &ce, &cd, be.len())
					for _, scratch := range []*vscratch{nil, {}} {
						b := batch()
						b.scratch = scratch
						m := b.col(0)
						sameCol(t, at+": vbatch.col", &m, &dec, n)
						// A scratch decode leaves the batch's own column encoded;
						// without scratch the decoded vector replaces it.
						if cached := b.cols[0].seg == nil; enc.seg != nil && cached != (scratch == nil) {
							t.Fatalf("%s: decoded into scratch=%v, cached on the batch=%v", at, scratch != nil, cached)
						}
					}
				}
			}
		}
	}
	for _, name := range []string{"for8", "for16", "for32", "for8-top", "for16-bottom", "rle"} {
		if !encodedSeen[name] {
			t.Errorf("no %s window ever travelled encoded", name)
		}
	}
}

// sameCol compares two int columns row by row, NULLs included.
func sameCol(t *testing.T, what string, got, want *vcol, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got.null(i) != want.null(i) || (!want.null(i) && got.intAt(i) != want.intAt(i)) {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got.value(i), want.value(i))
		}
	}
}
