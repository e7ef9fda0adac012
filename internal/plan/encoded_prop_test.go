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
	"repro/internal/strutil"
)

// Property test for the encoded-int column form: whatever a kernel or
// an operator helper computes from a segment column travelling encoded
// (FOR deltas) must equal what it computes from that column's
// DecodeInts output. The expected side of every predicate is
// computed here in plain Go from the decoded values, with SQL's
// comparison semantics spelled out: INT against INT compares integers,
// anything against a FLOAT compares float64s.

// encShape is one way of filling an int column, named for the
// encoding it should seal into.
type encShape struct {
	name string
	gen  func(r *rand.Rand, i int) int64
	enc  store.SegEncoding
}

func encShapes(r *rand.Rand) []encShape {
	baseNarrow, base16 := r.Int63n(2000)-1000, -r.Int63n(1<<40)
	return []encShape{
		{"plain", func(r *rand.Rand, i int) int64 { return (r.Int63() - 1<<62) * 2 }, store.SegPlain},
		// A span of 200 leaves most of the 16-bit delta range above
		// the column's values, for intervals clipped there.
		{"for-narrow", func(r *rand.Rand, i int) int64 { return baseNarrow + r.Int63n(200) }, store.SegFOR},
		{"for16", func(r *rand.Rand, i int) int64 { return base16 + r.Int63n(50_000) }, store.SegFOR},
		// Near the ends of int64, where float64(x) rounds across
		// neighbouring integers and interval arithmetic could overflow.
		{"for-top", func(r *rand.Rand, i int) int64 { return math.MaxInt64 - r.Int63n(250) }, store.SegFOR},
		{"for16-bottom", func(r *rand.Rand, i int) int64 { return math.MinInt64 + r.Int63n(60_000) }, store.SegFOR},
		// Clustered runs of 19 equal values.
		{"for-runs", func(r *rand.Rand, i int) int64 { return int64(i/19) - 40 }, store.SegFOR},
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
			segs = append(segs, seg.Cols())
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

// wantCmp is  x OP c  under those semantics.
func wantCmp(op sql.BinOp, x int64, c store.Value) bool {
	if c.Kind() == store.KindInt {
		return cmpOpNum(op, x, c.Int64())
	}
	f, _ := c.AsFloat()
	return cmpOpNum(op, float64(x), f)
}

func cmpOpNum[T int64 | float64](op sql.BinOp, a, b T) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
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
		ve, err := newCompiler(rel, &Ctx{}).compile(e)
		if err != nil {
			t.Fatalf("%s does not vectorize: %v", e, err)
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
				if sc.Enc != sh.enc {
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
	for _, name := range []string{"for-narrow", "for16", "for-top", "for16-bottom", "for-runs"} {
		if !encodedSeen[name] {
			t.Errorf("no %s window ever travelled encoded", name)
		}
	}
	t.Run("text", testEncodedTextKernels)
}

// textShape is one way of filling a text column that seals into a
// dictionary of card entries: gen gives row i's string, or ok false for
// a NULL.
type textShape struct {
	name string
	gen  func(r *rand.Rand, i int) (s string, ok bool)
	card int
}

// dictCap is the store's dictionary cap, segDictMaxCard: the largest
// code a sealed segment holds is dictCap-1.
const dictCap = 1 << 15

// testEncodedTextKernels is the text half of the property: whatever a
// kernel, a gather, a hash or a key set computes from a dictionary
// column travelling in code space must equal what it computes from the
// strings the rows were written with. The dictionaries are wider than
// a byte — about 300 entries, and one at the cap — so a code cut to 8
// bits reads the wrong entry.
func testEncodedTextKernels(t *testing.T) {
	r := rand.New(rand.NewSource(20261019))
	shapes := []textShape{
		{"dict300", func(r *rand.Rand, i int) (string, bool) { return fmt.Sprintf("k%03d", r.Intn(300)), true }, 300},
		// i*7919 mod dictCap visits every residue once in each half of
		// the segment, so row i < dictCap holds code i.
		{"dict-cap", func(r *rand.Rand, i int) (string, bool) { return fmt.Sprintf("c%05d", i*7919%dictCap), true }, dictCap},
		{"dict300-nulls", func(r *rand.Rand, i int) (string, bool) {
			return fmt.Sprintf("k%03d", r.Intn(300)), r.Intn(4) != 0
		}, 300},
	}
	const segRows = 2 * dictCap
	cols := make([]schema.Column, len(shapes))
	for c := range shapes {
		cols[c] = schema.Column{Name: fmt.Sprintf("c%d", c), Type: schema.Text}
	}
	db := store.NewDB(schema.MustNew("enc", []*schema.Table{{Name: "t", Columns: cols}}, nil))
	db.Table("t").SetSegmentRows(segRows)
	rows := make([]store.Row, segRows+17)
	vals := make([][]store.Value, len(shapes))
	for c := range vals {
		vals[c] = make([]store.Value, len(rows))
	}
	for i := range rows {
		rows[i] = make(store.Row, len(shapes))
		for c, sh := range shapes {
			v := store.Null()
			if x, ok := sh.gen(r, i); ok {
				v = store.Text(x)
			}
			rows[i][c], vals[c][i] = v, v
		}
	}
	db.MustBulkInsert("t", rows)
	sn := db.Snapshot()
	seg := sn.Table("t").Segments().Segs[0]
	if !seg.Sealed {
		t.Fatal("fixture: the first segment is not sealed")
	}

	rel := &Rel{Width: 1, Bindings: []Binding{{Name: "t", Cols: []int{0},
		Meta: &schema.Table{Name: "t", Columns: []schema.Column{{Name: "x", Type: schema.Text}}}}}}
	x := sql.Col("", "x")
	compile := func(e sql.Expr) vexpr {
		t.Helper()
		ve, err := newCompiler(rel, &Ctx{}).compile(e)
		if err != nil {
			t.Fatalf("%s does not vectorize: %v", e, err)
		}
		return ve
	}
	for c, sh := range shapes {
		sc := seg.Cols()[c]
		if sc.Enc != store.SegDict || len(sc.Dict) != sh.card {
			t.Fatalf("fixture: %s sealed as %v with %d entries, want a dictionary of %d", sh.name, sc.Enc, len(sc.Dict), sh.card)
		}
		var keys [2]keySet
		for k := range keys {
			keys[k].init([]vcol{{kind: store.KindText}})
		}
		// The first window ends on row dictCap-1, which holds the cap
		// shape's largest code.
		windows := [][2]int{{dictCap - 700, dictCap}}
		for w := 0; w < 6; w++ {
			lo := r.Intn(sc.N)
			windows = append(windows, [2]int{lo, lo + 1 + r.Intn(min(sc.N-lo, maxBatch))})
		}
		wide := false // a window held a code above 255
		for _, win := range windows {
			lo, hi := win[0], win[1]
			n := hi - lo
			enc := segWindowCol(sc, lo, hi, nil)
			if enc.dict == nil {
				t.Fatalf("%s window [%d,%d) does not travel in code space", sh.name, lo, hi)
			}
			dec := vcol{kind: store.KindText, strs: make([]string, n)}
			for i, v := range vals[c][lo:hi] {
				if v.IsNull() {
					if dec.nulls == nil {
						dec.nulls = make([]bool, n)
					}
					dec.nulls[i] = true
					continue
				}
				dec.strs[i] = v.Str()
			}
			at := fmt.Sprintf("%s window=[%d,%d)", sh.name, lo, hi)
			maxCode := slices.Max(enc.codes)
			wide = wide || maxCode > 255
			sel := randSel(r, n)
			batch := func() *vbatch { return &vbatch{n: n, cols: []vcol{enc}} }
			check := func(e sql.Expr, want func(s string) (bool, bool)) {
				t.Helper()
				pc := compile(e).eval(batch())
				exp := vcol{kind: store.KindBool, bools: make([]bool, n), nulls: make([]bool, n)}
				for i, s := range dec.strs {
					if dec.null(i) {
						exp.nulls[i] = true
						continue
					}
					exp.bools[i], exp.nulls[i] = want(s)
				}
				if got, want := passing(&pc, n, sel), passing(&exp, n, sel); !slices.Equal(got, want) {
					t.Fatalf("%s: %s keeps %v, decoded keeps %v", at, e, got, want)
				}
			}

			// Probes: the strings of the window's largest code and of a
			// random row, one no row holds, and the empty string.
			probes := []string{sc.Dict[maxCode], dec.strs[r.Intn(n)], "k299x", ""}
			for _, k := range probes {
				lit := sql.Literal{Val: store.Text(k)}
				for _, op := range cmpOps {
					for _, flipped := range []bool{false, true} {
						e, wop := sql.Cmp(op, x, lit), op
						if flipped {
							e, wop = sql.Cmp(op, lit, x), flipCmp(op)
						}
						check(e, func(s string) (bool, bool) { return cmpOpStr(wop, s, k), false })
					}
				}
			}
			for b := 0; b < 12; b++ {
				var list []sql.Expr
				var elems []string
				sawNull := b%4 == 3
				for range 1 + r.Intn(4) {
					k := probes[r.Intn(len(probes))]
					list, elems = append(list, sql.Literal{Val: store.Text(k)}), append(elems, k)
				}
				if sawNull {
					list = append(list, sql.Literal{Val: store.Null()})
				}
				neg := r.Intn(2) == 0
				check(&sql.InExpr{X: x, List: list, Negated: neg}, func(s string) (bool, bool) {
					if slices.Contains(elems, s) {
						return !neg, false
					}
					return neg, sawNull
				})
			}
			for _, pat := range []string{"k2%", "%9", "c1_3_", "%", "k%5_", sc.Dict[maxCode]} {
				for _, neg := range []bool{false, true} {
					e := &sql.LikeExpr{X: x, Pattern: sql.Literal{Val: store.Text(pat)}, Negated: neg}
					check(e, func(s string) (bool, bool) { return strutil.MatchLike(s, pat) != neg, false })
				}
			}

			// Hashes, key equality, gathers (allocated and into scratch,
			// where the codes travel on) and key numbering, as GROUP BY
			// and DISTINCT keep it.
			he, hd := make([]uint64, n), make([]uint64, n)
			hashCol(&enc, n, sel, he, nil)
			hashCol(&dec, n, sel, hd, nil)
			if !slices.Equal(he, hd) {
				t.Fatalf("%s: hashCol differs", at)
			}
			// Rows of one dictionary compare by code.
			for j := range min(n, 64) {
				for i := range n {
					if g, w := eqVals(&enc, i, &enc, j), eqVals(&dec, i, &dec, j); g != w {
						t.Fatalf("%s: rows %d and %d equal %v, decoded %v", at, i, j, g, w)
					}
				}
			}
			idxs := randSel(r, n)
			if idxs == nil {
				idxs = []int32{int32(n - 1), 0, int32(n / 2), 0}
			}
			for _, scratch := range []*vscratch{nil, {}} {
				ge, gd := scatterCol(&enc, len(idxs), nil, idxs, scratch), gatherCol(&dec, idxs)
				if ge.dict == nil {
					t.Fatalf("%s: a gather decoded the codes", at)
				}
				sameText(t, at+": gather", &ge, &gd, len(idxs))
			}
			var ids [2][]int
			hs := [2][]uint64{he, hd}
			for k, col := range [2]*vcol{&enc, &dec} {
				(&vbatch{n: n, sel: sel}).forSel(func(i int) {
					id, _ := keys[k].id([]vcol{*col}, i, hs[k][i])
					ids[k] = append(ids[k], id)
				})
			}
			if !slices.Equal(ids[0], ids[1]) {
				t.Fatalf("%s: key ids %v, decoded %v", at, ids[0], ids[1])
			}
		}
		if !wide {
			t.Fatalf("%s: no window held a code above 255", sh.name)
		}
		got, want := keys[0].keys[0], keys[1].keys[0]
		sameText(t, sh.name+": key set", &got, &want, len(keys[1].hs))
	}

	// GROUP BY and DISTINCT through whole plans, serial and over two
	// workers: every group of the coded column once, with its count.
	for c, sh := range shapes {
		counts := map[string]int64{}
		for _, v := range vals[c] {
			counts[v.Key()]++
		}
		for _, par := range []int{1, 2} {
			for _, q := range []string{
				fmt.Sprintf("SELECT c%d, COUNT(*) FROM t GROUP BY c%d", c, c),
				fmt.Sprintf("SELECT DISTINCT c%d FROM t", c),
			} {
				p, err := Compile(sn, sql.MustParse(q))
				if err != nil {
					t.Fatal(err)
				}
				out, err := Run(Parallelize(p, par), &Ctx{Snap: sn})
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if len(out) != len(counts) {
					t.Fatalf("%s par=%d %s: %d rows, want %d", sh.name, par, q, len(out), len(counts))
				}
				seen := map[string]bool{}
				for _, row := range out {
					k := row[0].Key()
					if _, ok := counts[k]; !ok || seen[k] {
						t.Fatalf("par=%d %s: group %s unknown or repeated", par, q, row[0])
					}
					seen[k] = true
					if len(row) > 1 && row[1].Int64() != counts[k] {
						t.Fatalf("par=%d %s: group %s counts %s, want %d", par, q, row[0], row[1], counts[k])
					}
				}
			}
		}
	}
}

// sameText compares two text columns row by row, NULLs included.
func sameText(t *testing.T, what string, got, want *vcol, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got.null(i) != want.null(i) || (!want.null(i) && got.str(i) != want.str(i)) {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got.value(i), want.value(i))
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
