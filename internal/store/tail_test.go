package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestLayoutIndependentOfBatchShape: the same rows loaded as one
// BulkInsert, as 1,024-row batches and as single Inserts give the same
// segment set — row counts, starts, seal flags, and every segment's
// SegmentFingerprint (encodings, zone maps, null bitmaps, values) — at
// small, odd and default seal boundaries. Sealing does not depend on
// which write filled a chunk, and the tail's incrementally kept zone
// maps equal what one pass over its rows gives.
func TestLayoutIndependentOfBatchShape(t *testing.T) {
	const n = DefaultSegmentRows + 1500
	rows := segTestRows(n)
	for _, segRows := range []int{64, 1000, 0} {
		load := func(shape string) *TableSnap {
			tab := segTestTable(t)
			tab.SetSegmentRows(segRows)
			switch shape {
			case "bulk":
				if err := tab.BulkInsert(rows); err != nil {
					t.Fatal(err)
				}
			case "batches":
				for lo := 0; lo < n; lo += 1024 {
					if err := tab.BulkInsert(rows[lo:min(lo+1024, n)]); err != nil {
						t.Fatal(err)
					}
				}
			case "inserts":
				for _, row := range rows {
					if err := tab.Insert(row...); err != nil {
						t.Fatal(err)
					}
				}
			}
			return tab.Snap()
		}
		bulk := load("bulk")
		checkSegSet(t, bulk, rows, fmt.Sprintf("segRows=%d bulk", segRows))
		want := bulk.Segments()
		for _, shape := range []string{"batches", "inserts"} {
			got := load(shape).Segments()
			ctx := fmt.Sprintf("segRows=%d %s", segRows, shape)
			if got.N != want.N || len(got.Segs) != len(want.Segs) {
				t.Fatalf("%s: %d rows in %d segments, bulk %d in %d", ctx, got.N, len(got.Segs), want.N, len(want.Segs))
			}
			for i, seg := range got.Segs {
				w := want.Segs[i]
				if got.Start[i] != want.Start[i] || seg.N != w.N || seg.Sealed != w.Sealed {
					t.Fatalf("%s: segment %d is (start %d, %d rows, sealed %v), bulk (%d, %d, %v)",
						ctx, i, got.Start[i], seg.N, seg.Sealed, want.Start[i], w.N, w.Sealed)
				}
				if !bytes.Equal(SegmentFingerprint(seg), SegmentFingerprint(w)) {
					t.Fatalf("%s: segment %d (sealed %v) is laid out differently from the bulk load", ctx, i, seg.Sealed)
				}
				for ci, z := range seg.Zones {
					if z != w.Zones[ci] {
						t.Fatalf("%s: segment %d col %d zone %+v, bulk %+v", ctx, i, ci, z, w.Zones[ci])
					}
				}
			}
		}
	}
}

// TestTailAppendRace pins readers at successive versions while a
// writer appends 1-, 37- and 1,024-row batches. Each reader decodes
// its tail — values and NULLs, whose bitmap words the writer's later
// rows share — before and after the writer has moved on, and the two
// decodings must be identical and equal to the rows written. Run it
// under -race: the writer appends in place past every published
// length, and only -race sees a write into a word a reader reads.
func TestTailAppendRace(t *testing.T) {
	const total, segRows = 20000, 4096
	tab := segTestTable(t)
	tab.SetSegmentRows(segRows)
	all := segTestRows(total)

	decodeTail := func(s *TableSnap) []Value {
		ss := s.Segments()
		if len(ss.Segs) == 0 || ss.Segs[len(ss.Segs)-1].Sealed {
			return nil
		}
		seg := ss.Segs[len(ss.Segs)-1]
		var out []Value
		for _, c := range seg.Cols() {
			mask := c.NullMask(0, c.N, nil)
			for i := 0; i < c.N; i++ {
				v := c.Value(i)
				if (mask != nil && mask[i]) != v.IsNull() {
					out = append(out, Text("mask disagrees"))
					continue
				}
				out = append(out, v)
			}
		}
		return out
	}

	written := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(written)
		sizes := []int{1, 37, 1024}
		for lo, k := 0, 0; lo < total; k++ {
			hi := min(lo+sizes[k%len(sizes)], total)
			if err := tab.BulkInsert(all[lo:hi]); err != nil {
				t.Error(err)
				return
			}
			lo = hi
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pins := 0; ; pins++ {
				s := tab.Snap()
				before := decodeTail(s)
				if isClosed(written) {
					return
				}
				for tab.Version() == s.Version() && !isClosed(written) {
					runtime.Gosched()
				}
				after := decodeTail(s)
				if len(before) != len(after) {
					t.Errorf("pin at version %d: tail decoded %d cells, then %d", s.Version(), len(before), len(after))
					return
				}
				for i := range before {
					if Compare(before[i], after[i]) != 0 || before[i].Kind() != after[i].Kind() {
						t.Errorf("pin at version %d: tail cell %d read %v, then %v", s.Version(), i, before[i], after[i])
						return
					}
				}
				ss := s.Segments()
				if n := len(ss.Segs); n > 0 && !ss.Segs[n-1].Sealed {
					start, tn := ss.Start[n-1], ss.Segs[n-1].N
					for i, v := range after {
						want := all[start+i%tn][i/tn]
						if Compare(v, want) != 0 || v.Kind() != want.Kind() {
							t.Errorf("pin at version %d: tail row %d col %d = %v, want %v", s.Version(), i%tn, i/tn, v, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	checkSegSet(t, tab.Snap(), all, "after the race")
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
