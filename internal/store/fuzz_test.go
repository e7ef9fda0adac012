package store

import (
	"fmt"
	"testing"
)

// FuzzSnapshotVisibility drives the write path with a fuzzer-chosen
// interleaving of single inserts, bulk batches, index DDL, cache
// warming and snapshot pins, and checks MVCC visibility semantics:
//
//   - a pinned snapshot never changes, no matter what is written after
//     it (its length and a content fingerprint stay frozen);
//   - the live table always equals the model: every published version
//     contains exactly the rows written before it, in order;
//   - a snapshot's segment layout agrees with its rows (no torn or
//     leaked cells from sealing or copy-on-write extension; the seal
//     boundary is 5 rows so both are crossed).
//
// Each input byte is one operation; low bits select the op, high bits
// parameterize it — tiny inputs still exercise interleavings.
func FuzzSnapshotVisibility(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x11, 0x02, 0x23, 0x04, 0x30})
	f.Add([]byte{0x04, 0x00, 0x00, 0x04, 0x51, 0x04, 0x00})
	f.Add([]byte{0x11, 0x04, 0x12, 0x04, 0x13, 0x04, 0x14})
	f.Add([]byte{0x03, 0x02, 0x04, 0xff, 0x04, 0x01, 0x04})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256] // bound work per input
		}
		db := snapTestDB(t)
		tab := db.Table("m")
		tab.SetSegmentRows(5)

		type pinned struct {
			snap *TableSnap
			len  int
			sum  int64
		}
		var pins []pinned
		var model []Row
		next := 0

		fingerprint := func(rows []Row) int64 {
			var sum int64
			for _, row := range rows {
				sum += row[0].Int64()*31 + int64(len(row[2].Str()))
			}
			return sum
		}
		mkRow := func(arg int) Row {
			r := Row{Int(int64(next)), Float(float64(arg)), Text([]string{"a", "b", "c"}[arg%3])}
			if arg%5 == 0 {
				r[1] = Null()
			}
			next++
			return r
		}

		for _, op := range ops {
			arg := int(op >> 4)
			switch op & 0x0f {
			case 0: // single insert
				row := mkRow(arg)
				model = append(model, row)
				if err := tab.Insert(row...); err != nil {
					t.Fatal(err)
				}
			case 1: // bulk insert of arg+1 rows
				batch := make([]Row, arg+1)
				for i := range batch {
					batch[i] = mkRow(arg + i)
				}
				model = append(model, batch...)
				if err := tab.BulkInsert(batch); err != nil {
					t.Fatal(err)
				}
			case 2: // index DDL
				var err error
				switch arg % 3 {
				case 0:
					err = tab.BuildIndex("id")
				case 1:
					err = tab.BuildOrderedIndex("score")
				case 2:
					tab.DropIndex("id")
				}
				if err != nil {
					t.Fatal(err)
				}
			case 3: // warm lazy caches (exercises incremental extension)
				tab.Segments()
				tab.Stats("id")
			case 4: // pin a snapshot
				s := tab.Snap()
				pins = append(pins, pinned{snap: s, len: s.Len(), sum: fingerprint(s.Rows())})
			}
		}

		// The live table equals the model.
		live := tab.Snap()
		if live.Len() != len(model) {
			t.Fatalf("live table has %d rows, model %d", live.Len(), len(model))
		}
		for i, row := range live.Rows() {
			for c := range row {
				if Compare(row[c], model[i][c]) != 0 {
					t.Fatalf("row %d col %d: table %v, model %v", i, c, row[c], model[i][c])
				}
			}
		}

		// Every pinned snapshot is still exactly what it was.
		for i, p := range pins {
			if p.snap.Len() != p.len {
				t.Fatalf("pin %d: len moved %d -> %d", i, p.len, p.snap.Len())
			}
			if got := fingerprint(p.snap.Rows()); got != p.sum {
				t.Fatalf("pin %d: contents moved (%d -> %d)", i, p.sum, got)
			}
			checkSegSet(t, p.snap, fmt.Sprintf("pin %d", i))
		}
	})
}
