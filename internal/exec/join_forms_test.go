package exec_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/store"
)

// joinFormsDB builds the hash-join output-form fixture:
//
//   - p, the probe side: 2,600 events over 1,024-row segments, so a scan
//     batch is a whole segment. k (INT, NULL every 13th row) joins d and
//     m; kf is k as a FLOAT, with non-integral, NaN and -0.0 values
//     mixed in; g is dictionary text per segment; s cuts sparse
//     selections; ts (clustered runs) and id seal FOR, so forwarded
//     columns travel encoded.
//   - d, a unique-key build side: 64 devices in one sealed segment, k
//     unique but NULL in four rows, g dictionary text, name plain text,
//     w a FLOAT with NULLs.
//   - m, a duplicate-key build side: 48 rows over three 16-row segments,
//     each key value on two rows (one pair NULL), g dictionary text with
//     a dictionary of its own per segment.
//
// The layout is asserted, not assumed.
func joinFormsDB(t *testing.T) *store.DB {
	t.Helper()
	intCol := func(name string) schema.Column { return schema.Column{Name: name, Type: schema.Int} }
	textCol := func(name string) schema.Column { return schema.Column{Name: name, Type: schema.Text} }
	floatCol := func(name string) schema.Column { return schema.Column{Name: name, Type: schema.Float} }
	s := schema.MustNew("joinforms", []*schema.Table{
		{Name: "p", Columns: []schema.Column{intCol("id"), intCol("ts"), intCol("k"), floatCol("kf"),
			textCol("g"), intCol("s"), floatCol("v")}},
		{Name: "d", Columns: []schema.Column{intCol("id"), intCol("k"), textCol("g"), textCol("name"), floatCol("w")}},
		{Name: "m", Columns: []schema.Column{intCol("id"), intCol("k"), textCol("g")}},
	}, nil)
	db := store.NewDB(s)

	prows := make([]store.Row, 2600)
	for i := range prows {
		k, kf := store.Int(int64(i*7%80)), store.Float(float64(i*7%80))
		switch {
		case i%13 == 5:
			k, kf = store.Null(), store.Null()
		case i%17 == 3:
			kf = store.Float(float64(i*7%80) + 0.5)
		case i%29 == 0:
			kf = store.Float(math.NaN())
		case i*7%80 == 0:
			kf = store.Float(math.Copysign(0, -1))
		}
		v := store.Float(float64(i%97) / 4)
		if i%11 == 4 {
			v = store.Null()
		}
		prows[i] = store.Row{store.Int(int64(i)), store.Int(int64(1_700_000_000 + i/8)), k, kf,
			store.Text(fmt.Sprintf("g%d", i%10)), store.Int(int64(i % 16)), v}
	}
	drows := make([]store.Row, 64)
	for i := range drows {
		k := store.Int(int64(i))
		if i%16 == 9 {
			k = store.Null()
		}
		w := store.Float(float64(i) * 1.5)
		if i%5 == 2 {
			w = store.Null()
		}
		drows[i] = store.Row{store.Int(int64(i)), k, store.Text(fmt.Sprintf("g%d", i%8)),
			store.Text(fmt.Sprintf("device-%02d", i)), w}
	}
	mrows := make([]store.Row, 48)
	for i := range mrows {
		k := store.Int(int64(i / 2 * 3))
		if i/2 == 7 {
			k = store.Null()
		}
		mrows[i] = store.Row{store.Int(int64(i)), k, store.Text(fmt.Sprintf("g%d", i%8))}
	}
	db.MustBulkInsert("p", prows)
	db.MustBulkInsert("d", drows)
	db.MustBulkInsert("m", mrows)
	db.Table("p").SetSegmentRows(1024)
	db.Table("d").SetSegmentRows(64)
	db.Table("m").SetSegmentRows(16)

	sn := db.Snapshot()
	for _, want := range []struct {
		table   string
		segs    int
		col     int
		enc     store.SegEncoding
		ownDict bool // every sealed segment has a dictionary of its own
	}{
		{"p", 3, 0, store.SegFOR, false}, {"p", 3, 1, store.SegFOR, false}, {"p", 3, 4, store.SegDict, true},
		{"d", 1, 2, store.SegDict, false}, {"d", 1, 3, store.SegPlain, false},
		{"m", 3, 2, store.SegDict, true},
	} {
		segs := sn.Table(want.table).Segments().Segs
		if len(segs) != want.segs {
			t.Fatalf("fixture: %s has %d segments, want %d", want.table, len(segs), want.segs)
		}
		var dicts []*string
		for si, seg := range segs {
			if seg.N < 1024 && want.table == "p" {
				continue // p's unsealed tail
			}
			c := seg.Cols()[want.col]
			if c.Enc != want.enc {
				t.Fatalf("fixture: %s segment %d column %d sealed as %v, want %v", want.table, si, want.col, c.Enc, want.enc)
			}
			if want.ownDict {
				for _, d := range dicts {
					if d == &c.Dict[0] {
						t.Fatalf("fixture: %s segment %d shares a dictionary", want.table, si)
					}
				}
				dicts = append(dicts, &c.Dict[0])
			}
		}
	}
	return db
}

// joinFormsCase is one join query; build names the plan line that must
// carry the [build] mark, so each case hashes the side it is about.
type joinFormsCase struct {
	name, sql, build string
}

// joinFormsCorpus reaches both output forms of the hash-join probe —
// the input batch forwarded with the build columns written at its match
// rows, and the dense gather — over every key kind and build layout.
var joinFormsCorpus = []joinFormsCase{
	// Unique build keys, most probe rows matching: forwarded, with p's
	// FOR columns and its lent null masks carried through to a
	// projection, an aggregate that folds them, a sort and a limit.
	{"unique/full", "SELECT p.id, p.ts, p.v, d.name, d.w FROM p, d WHERE p.k = d.k", "scan d"},
	{"unique/full/agg", "SELECT d.name, COUNT(*), AVG(p.v), MIN(p.ts), MAX(p.id) FROM p, d WHERE p.k = d.k GROUP BY d.name", "scan d"},
	{"unique/full/sorted", "SELECT p.ts, d.w, p.id FROM p, d WHERE p.k = d.k ORDER BY d.w DESC, p.id LIMIT 900", "scan d"},
	{"unique/full/limit", "SELECT p.id, d.name FROM p, d WHERE p.k = d.k LIMIT 1500", "scan d"},
	// A filtered probe: thirteen rows in sixteen, six in ten matching
	// (forwarded, its selection narrowed by the matches; gathered under
	// the aggregate, whose probe carries too few columns to outweigh
	// writing d.g and d.name at every physical row), half (gathered) and
	// one in sixteen.
	{"unique/most", "SELECT p.id, p.ts, d.name FROM p, d WHERE p.k = d.k AND p.s < 13", "scan d"},
	{"unique/most/agg", "SELECT d.g, COUNT(*), AVG(p.v), MIN(d.name) FROM p, d WHERE p.k = d.k AND p.s < 13 GROUP BY d.g", "scan d"},
	{"unique/half", "SELECT p.id, p.ts, d.name FROM p, d WHERE p.k = d.k AND p.s < 8", "scan d"},
	{"unique/sparse", "SELECT p.id, p.ts, d.name FROM p, d WHERE p.k = d.k AND p.s = 3", "scan d"},
	{"unique/sparse/agg", "SELECT d.g, COUNT(*), SUM(p.v) FROM p, d WHERE p.k = d.k AND p.s = 3 GROUP BY d.g", "scan d"},
	// Duplicate build keys: a probe row matches two rows, so the batch
	// gathers, full and filtered. A bare m.id outside GROUP BY takes its
	// group's first row, so the matches must come out in build-row order.
	{"dup/full", "SELECT p.id, m.id, p.v FROM p, m WHERE p.k = m.k", "scan m"},
	{"dup/half", "SELECT p.id, m.id FROM p, m WHERE p.k = m.k AND p.s < 8", "scan m"},
	{"dup/agg", "SELECT m.g, COUNT(*), AVG(p.v) FROM p, m WHERE p.k = m.k GROUP BY m.g", "scan m"},
	{"dup/first", "SELECT p.g, m.id, COUNT(*) FROM p, m WHERE p.k = m.k GROUP BY p.g", "scan m"},
	// INT⇄FLOAT keys: kf = k joins as INT equality does, and .5, NaN and
	// -0.0 (which equals 0) probe too.
	{"int-float", "SELECT p.id, p.kf, d.name FROM p, d WHERE p.kf = d.k", "scan d"},
	{"int-float/dup", "SELECT p.id, m.id FROM p, m WHERE p.kf = m.k", "scan m"},
	// Dictionary text keys. A drained build side holds strings: d's one
	// segment and m's three are probed by codes from p's dictionaries,
	// and d by its own codes (d probing itself) — forwarded when eight of
	// p's ten groups match, gathered when three do or when keys repeat.
	{"dict/one-segment", "SELECT p.id, d.id, d.g FROM p, d WHERE p.g = d.g AND d.id < 8", "filter (d.id"},
	{"dict/shared", "SELECT a.id, b.id, b.name FROM d a, d b WHERE a.g = b.g AND b.id < 8", "filter (b.id"},
	{"dict/several", "SELECT p.id, m.id, m.g FROM p, m WHERE p.g = m.g AND m.id IN (0, 17, 34, 3, 20, 37, 6, 23)", "filter m.id"},
	{"dict/several/sparse", "SELECT p.id, m.id, m.g FROM p, m WHERE p.g = m.g AND m.id IN (1, 18, 35)", "filter m.id"},
	{"dict/several/dup", "SELECT p.id, m.id FROM p, m WHERE p.g = m.g AND p.s = 5", "scan m"},
	// A build side that is itself a join, hashed whole and probed by p:
	// d ⋈ m, which repeats d's keys, and a ⋈ b, which does not.
	{"build-join", "SELECT p.id, d.name, m.id FROM p, d, m WHERE p.k = d.k AND d.id = m.k", "hash join on (d.id = m.k)"},
	{"build-join/agg", "SELECT m.g, COUNT(*), MIN(p.ts) FROM p, d, m WHERE p.k = d.k AND d.id = m.k AND p.s < 12 GROUP BY m.g", "hash join on (d.id = m.k)"},
	{"build-join/unique", "SELECT p.id, p.ts, p.v, b.w FROM p, d a, d b WHERE p.k = a.k AND a.id = b.id AND b.id >= 0", "hash join on (a.id = b.id)"},
	// The build columns a probe writes are lent from its scratch, which
	// its next batch overwrites; whoever needs them longer copies them:
	// the projection gathers them, and a join whose probe spans p's
	// three segments, drained whole as the build side of another join,
	// pushes them into the build's builders.
	{"lent/project", "SELECT p.id, d.name, d.w, d.g FROM p, d WHERE p.k = d.k AND p.s < 15", "scan d"},
	{"lent/build-join", "SELECT d.name, m.g, p.id FROM p, d, m WHERE p.k = m.k AND p.s < 4 AND p.s = d.id", "hash join on (p.k = m.k)"},
	{"lent/build-join/gather", "SELECT a.name, d.name, p.id FROM p, d, d a WHERE p.k = d.k AND p.s = 2 AND p.s = a.id", "hash join on (p.k = d.k)"},
}

// TestHashJoinOutputForms runs joinFormsCorpus at parallelism 1, 2 and
// 4. Every run must equal the reference executor as a bag, and the
// parallel runs the serial one row for row — the aggregates folding
// per worker, and a join drained into a build, read lent probe columns,
// build columns the probe wrote into its scratch and a selection lent
// from that scratch through the join.
func TestHashJoinOutputForms(t *testing.T) {
	sn := joinFormsDB(t).Snapshot()
	for _, c := range joinFormsCorpus {
		for _, r := range differential(t, sn, c.sql, diffOpts{pars: []int{1, 2, 4}}) {
			if c.build != "" && !hasBuildLine(r.plan.Explain(), c.build) {
				t.Errorf("%s par=%d: no [build] line starting %q:\n%s", c.name, r.par, c.build, r.plan.Explain())
			}
		}
	}
}

// hasBuildLine reports whether an Explain line for the node described
// by prefix carries the [build] mark.
func hasBuildLine(explain, prefix string) bool {
	for _, line := range strings.Split(explain, "\n") {
		node := strings.TrimLeft(line, "│├└─ ")
		if strings.HasPrefix(node, prefix) && strings.Contains(line, "[build]") {
			return true
		}
	}
	return false
}
