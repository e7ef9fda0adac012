package store

import (
	"sync"

	"repro/internal/schema"
)

// This file is the snapshot-isolation core of the store. A Table is a
// mutable handle whose contents live in immutable tableData versions:
// writers build the next version copy-on-write under the table's write
// lock and publish it with one atomic pointer store; readers pin a
// version (TableSnap, or a whole-database Snapshot) and see it frozen
// — rows, statistics and the segment layout all describe the same
// instant, with no locks on the read path.
//
// Copy-on-write is chunk-grained, not wholesale:
//
//   - rows append in place: a published []Row is only ever extended
//     past its length, which readers of the shorter header never see;
//   - the segment layout carries over incrementally when the previous
//     version had it built: sealed segments are shared by pointer and
//     only the tail is re-encoded (see extendSegs);
//   - statistics are recomputed lazily, per column, on first demand.
//
// Writers to one table serialize on its writer lock; writers to
// different tables are independent. Version numbers are per table and
// bump only on row mutations — a reseal (SetSegmentRows) republishes
// the same data under the same version, so caches keyed on versions
// stay valid.

// tableData is one immutable version of a table's contents. Everything
// reachable from it is frozen at publish time except the lazy caches,
// which are guarded and only ever move from empty to built.
type tableData struct {
	rows    []Row
	version uint64
	segRows int // seal boundary for the segment layout (0 = default)
	caches  *dataCaches
}

// dataCaches holds the lazily-built derivatives of one data version:
// per-column statistics and the segment layout. Row mutations allocate
// a fresh one, its segment layout pre-seeded incrementally when the
// previous version had one built.
type dataCaches struct {
	statsMu sync.Mutex
	stats   map[string]ColStats

	segsMu sync.Mutex
	segs   *SegSet // nil until built
}

// TableSnap is a pinned, immutable view of one table version. All read
// accessors of Table exist here too; a query that resolves its tables
// once through a Snapshot sees rows, stats and segments that are
// mutually consistent for its whole plan, regardless of
// concurrent writers.
type TableSnap struct {
	Meta   *schema.Table
	colIdx map[string]int
	d      *tableData
	spill  *SegCache // segment cache adopting sealed segments, or nil
}

// Snap pins the table's current version.
func (t *Table) Snap() *TableSnap {
	return &TableSnap{Meta: t.Meta, colIdx: t.colIdx, d: t.data.Load(), spill: t.spill.Load()}
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
func (s *TableSnap) Len() int { return len(s.d.rows) }

// Rows returns the snapshot's rows. Callers must not mutate them.
func (s *TableSnap) Rows() []Row { return s.d.rows }

// Row returns row i.
func (s *TableSnap) Row(i int) Row { return s.d.rows[i] }

// Stats returns the (lazily computed, cached) statistics for the named
// column at this snapshot. The second result is false when the column
// does not exist. The cache lives on the pinned version, so a snapshot's
// stats always describe exactly its rows — writers never invalidate
// them, they publish new versions with their own, empty caches.
func (s *TableSnap) Stats(col string) (ColStats, bool) {
	ci := s.ColIndex(col)
	if ci < 0 {
		return ColStats{}, false
	}
	c := s.d.caches
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if st, ok := c.stats[col]; ok {
		return st, true
	}
	st := computeStats(s.d.rows, ci)
	if c.stats == nil {
		c.stats = make(map[string]ColStats, len(s.Meta.Columns))
	}
	c.stats[col] = st
	return st, true
}

// Segments returns the snapshot's segment layout: sealed compressed
// segments covering full chunks of the row set plus at most one plain
// mutable tail, built lazily and cached on the pinned version. Writers
// extend a built layout by sharing the sealed prefix by pointer and
// re-encoding only the tail (see extendSegs).
func (s *TableSnap) Segments() *SegSet {
	c := s.d.caches
	c.segsMu.Lock()
	if c.segs == nil {
		c.segs = buildSegments(s.Meta, s.d.rows, s.d.segRows)
	}
	ss := c.segs
	c.segsMu.Unlock()
	// Under a spill-enabled store, hand any not-yet-adopted sealed
	// segments to the segment cache (write-once serialization + byte
	// budget). Adoption is idempotent per segment, so covering both the
	// fresh-build and extendSegs paths here — the one funnel every
	// reader passes through — keeps the write path untouched.
	if s.spill != nil {
		s.spill.adopt(ss)
	}
	return ss
}

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
// Snapshot so every access — scans, stats, segments — observes the
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

// Version sums the pinned per-table versions — the whole-database data
// version this snapshot observes.
func (s *Snapshot) Version() uint64 {
	var v uint64
	for _, t := range s.tables {
		v += t.d.version
	}
	return v
}

// TableVersion returns the pinned version of the named table, or 0.
func (s *Snapshot) TableVersion(name string) uint64 {
	if t := s.tables[name]; t != nil {
		return t.d.version
	}
	return 0
}

// ---- write path ----

// publishRows appends staged (already validated and coerced) rows as
// the table's next version. The copy-on-write work happens under the
// writer lock and the version publishes with one pointer store, so a
// reader's snapshot sees the whole batch or none of it.
func (t *Table) publishRows(staged []Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.data.Load()
	next := &tableData{
		// Appending in place is safe: readers pinned to cur hold a
		// shorter slice header and never look past it, and writers are
		// serialized, so each backing array position is written once.
		rows:    append(cur.rows, staged...),
		version: cur.version + 1,
		segRows: cur.segRows,
	}
	// The segment layout carries over from the previous version when
	// built there; statistics start empty and are recomputed on demand.
	next.caches = &dataCaches{segs: extendSegs(t.Meta, cur, next)}
	t.data.Store(next)
}

// extendSegs extends the previous version's segment layout, when built:
// sealed segments are immutable and rows only ever append, so the next
// version shares them by pointer and re-encodes just the region past
// the last seal — sealing any full chunks the append completed and
// rebuilding the plain tail. Publish cost is O(tail + new), independent
// of table size.
func extendSegs(meta *schema.Table, cur, next *tableData) *SegSet {
	cur.caches.segsMu.Lock()
	prev := cur.caches.segs
	cur.caches.segsMu.Unlock()
	if prev == nil {
		return nil
	}
	sealed := prev.Segs
	if n := len(sealed); n > 0 && !sealed[n-1].Sealed {
		sealed = sealed[:n-1]
	}
	sealedRows := 0
	for _, seg := range sealed {
		sealedRows += seg.N
	}
	return composeSegs(meta, next.rows, sealed, sealedRows, next.segRows)
}
