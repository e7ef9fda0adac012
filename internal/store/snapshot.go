package store

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
)

// This file is the snapshot-isolation core of the store. A Table is a
// mutable handle whose contents live in immutable tableData versions:
// writers build the next version copy-on-write under the table's write
// lock and publish it with one atomic pointer store; readers pin a
// version (TableSnap, or a whole-database Snapshot) and see it frozen
// — its row count and segments describe the same instant, with no
// locks on the read path.
//
// A version's data is its segment set and nothing else: one resident
// copy. Copy-on-write is chunk-grained, not wholesale:
//
//   - sealed segments are immutable and shared by pointer;
//   - the tail's plain columns append in place: a published column is
//     only ever extended past its length, which readers of the shorter
//     header never see (the null bitmap's last partial word, the one
//     cell a reader sees change, is copied first — see appendCol);
//   - a write seals every chunk it fills before it publishes, fanning
//     the full chunks of a large batch out over GOMAXPROCS workers.
//
// Writers to one table serialize on its writer lock; writers to
// different tables are independent. Version numbers are per table and
// bump only on row mutations — a reseal (SetSegmentRows) republishes
// the same data under the same version, so caches keyed on versions
// stay valid.

// tableData is one immutable version of a table's contents: everything
// reachable from it is frozen at publish time.
type tableData struct {
	segs    *SegSet
	version uint64
	segRows int // seal boundary for the segment layout (0 = default)
}

// TableSnap is a pinned, immutable view of one table version. All read
// accessors of Table exist here too; a query that resolves its tables
// once through a Snapshot sees row counts and segments that are
// mutually consistent for its whole plan, regardless of
// concurrent writers.
type TableSnap struct {
	Meta   *schema.Table
	colIdx map[string]int
	d      *tableData
}

// Snap pins the table's current version.
func (t *Table) Snap() *TableSnap { return t.snapOf(t.data.Load()) }

func (t *Table) snapOf(d *tableData) *TableSnap {
	return &TableSnap{Meta: t.Meta, colIdx: t.colIdx, d: d}
}

// Version returns the data version this snapshot was pinned at.
func (s *TableSnap) Version() uint64 { return s.d.version }

// ColIndex returns the position of the named column, or -1.
func (s *TableSnap) ColIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// Len returns the row count.
func (s *TableSnap) Len() int { return s.d.segs.N }

// Rows materializes the snapshot's rows by decoding its segments, in
// O(n) time and space — for the reference executor and tests; the
// engine scans segments.
func (s *TableSnap) Rows() []Row {
	ss := s.d.segs
	nc := len(s.Meta.Columns)
	rows := make([]Row, ss.N)
	arena := make([]Value, ss.N*nc)
	for i := range rows {
		rows[i] = arena[i*nc : (i+1)*nc : (i+1)*nc]
	}
	for si, seg := range ss.Segs {
		cols := seg.Cols()
		for i, row := range rows[ss.Start[si] : ss.Start[si]+seg.N] {
			for ci, c := range cols {
				row[ci] = c.Value(i)
			}
		}
	}
	return rows
}

// Segments returns the snapshot's data: sealed compressed segments
// covering full chunks of the rows plus at most one plain tail.
func (s *TableSnap) Segments() *SegSet { return s.d.segs }

// SegmentRows returns the snapshot's seal boundary (rows per sealed
// segment).
func (s *TableSnap) SegmentRows() int {
	if sr := s.d.segRows; sr > 0 {
		return sr
	}
	return DefaultSegmentRows
}

// Snapshot is a pinned, immutable view of the whole database: one
// TableSnap per table, each at the version current when Snapshot() was
// called. Queries (planning and execution) resolve tables through one
// Snapshot so every access — row counts, scans, segments — observes the
// same instant.
type Snapshot struct {
	Schema *schema.Schema
	tables map[string]*TableSnap
}

// Snapshot pins the current version of every table. The tables are
// pinned one after another (each atomically); a writer racing with the
// pin may land in either side, but once returned the view is frozen.
func (db *DB) Snapshot() *Snapshot {
	s := &Snapshot{Schema: db.Schema, tables: make(map[string]*TableSnap, len(db.tables))}
	for name, t := range db.tables {
		s.tables[name] = t.Snap()
	}
	return s
}

// Table returns the pinned view of the named table, or nil.
func (s *Snapshot) Table(name string) *TableSnap { return s.tables[name] }

// TableVersion returns the pinned version of the named table, or 0.
func (s *Snapshot) TableVersion(name string) uint64 {
	if t := s.tables[name]; t != nil {
		return t.d.version
	}
	return 0
}

// ---- write path ----

// appendRows validates rows against the schema and publishes them as
// the table's next version; a row that does not fit leaves the table
// untouched. The copy-on-write work happens under the writer lock and
// the version publishes with one pointer store, so a reader's snapshot
// sees the whole batch or none of it.
func (t *Table) appendRows(rows []Row) error {
	nc := len(t.Meta.Columns)
	for _, row := range rows {
		if len(row) != nc {
			return t.rowError(rows)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.data.Load()
	segs, ok := appendSegs(t.Meta, cur.segs, rows, cur.segRows)
	if !ok {
		return t.rowError(rows)
	}
	t.data.Store(&tableData{
		segs:    segs,
		version: cur.version + 1,
		segRows: cur.segRows,
	})
	return nil
}

// rowError reports the first row, in row order, that does not fit the
// table: wrong arity, or a cell its column cannot store.
func (t *Table) rowError(rows []Row) error {
	cols := t.Meta.Columns
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("store: table %s expects %d values, got %d",
				t.Meta.Name, len(cols), len(row))
		}
		for i, v := range row {
			if _, err := coerce(v, cols[i].Type); err != nil {
				return fmt.Errorf("store: table %s column %s: %w",
					t.Meta.Name, cols[i].Name, err)
			}
		}
	}
	return nil
}

// appendSegs returns prev extended by rows under seal boundary segRows
// (0: the default), or ok false when a cell does not fit its column.
// Sealed segments carry over by pointer. Rows first top up the tail,
// sealing it if they fill it; whole chunks past that are transposed
// and sealed in parallel; what is left starts the next tail.
func appendSegs(meta *schema.Table, prev *SegSet, rows []Row, segRows int) (*SegSet, bool) {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	segs := append([]*Segment(nil), prev.Segs...)
	var tail []*SegCol
	if n := len(segs); n > 0 && !segs[n-1].Sealed {
		tail = segs[n-1].Cols()
		segs = segs[:n-1]
	}
	ok := true
	extend := func(rows []Row) {
		if len(rows) > 0 && ok {
			tail, ok = appendCols(meta, tail, rows, segRows)
		}
	}

	var filled []*SegCol // the tail, when the batch fills it
	pos := 0
	if tail != nil {
		pos = min(segRows-tail[0].N, len(rows))
		extend(rows[:pos])
		if ok && tail[0].N == segRows {
			filled, tail = tail, nil
		}
	}
	whole := (len(rows) - pos) / segRows
	sealed := make([]*Segment, whole)
	if filled != nil {
		sealed = append(sealed, nil)
	}
	if ok && len(sealed) > 0 {
		ok = sealChunks(sealed, func(i int) ([]*SegCol, bool) {
			if filled != nil {
				if i == 0 {
					return filled, true
				}
				i--
			}
			lo := pos + i*segRows
			return appendCols(meta, nil, rows[lo:lo+segRows], segRows)
		})
	}
	extend(rows[pos+whole*segRows:])
	if !ok {
		return nil, false
	}

	segs = append(segs, sealed...)
	if tail != nil {
		segs = append(segs, newSegment(tail, tail[0].N, false))
	}
	ss := &SegSet{Segs: segs, Start: make([]int, len(segs))}
	for i, seg := range segs {
		ss.Start[i] = ss.N
		ss.N += seg.N
	}
	return ss, true
}

// sealChunks seals chunk i of a batch into out[i] for every i, over
// up to GOMAXPROCS workers; plain(i) gives the chunk's plain columns.
// It reports false when plain does.
func sealChunks(out []*Segment, plain func(i int) ([]*SegCol, bool)) bool {
	var bad atomic.Bool
	seal := func(i int) {
		cols, ok := plain(i)
		if !ok {
			bad.Store(true)
			return
		}
		sealed := make([]*SegCol, len(cols))
		for ci, c := range cols {
			sealed[ci] = encodeSegCol(c)
		}
		out[i] = newSegment(sealed, cols[0].N, true)
	}

	workers := min(runtime.GOMAXPROCS(0), len(out))
	if workers <= 1 {
		for i := range out {
			seal(i)
		}
		return !bad.Load()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(out) && !bad.Load(); i = int(next.Add(1) - 1) {
				seal(i)
			}
		}()
	}
	wg.Wait()
	return !bad.Load()
}
