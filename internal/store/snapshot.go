package store

import (
	"sort"
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
// Writers to one partition serialize on its lock; writers to different
// tables are independent. Version numbers are per table and bump only
// on row mutations — a reseal (SetSegmentRows) republishes the same
// data under the same version, so caches keyed on versions stay valid.

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
//
// For a partitioned table the pinned state is a whole partSet — one
// immutable version per partition, captured by a single atomic load,
// so every partition is observed at the same instant. d is set for
// single-partition views (unpartitioned tables, and the per-partition
// views Part returns): the fast path every accessor takes. When d is
// nil the accessors serve the merged canonical view (partitions
// concatenated in order), row-for-row identical to an unpartitioned
// table with the same contents.
type TableSnap struct {
	Meta   *schema.Table
	colIdx map[string]int
	ps     *partSet
	d      *tableData // single-partition data, nil for a merged multi-partition view
	spill  *SegCache  // segment cache adopting sealed segments, or nil
}

// Snap pins the table's current version.
func (t *Table) Snap() *TableSnap {
	ps := t.pset.Load()
	s := &TableSnap{Meta: t.Meta, colIdx: t.colIdx, ps: ps, spill: t.spill.Load()}
	if len(ps.datas) == 1 {
		s.d = ps.datas[0]
	}
	return s
}

// Version returns the data version this snapshot was pinned at.
func (s *TableSnap) Version() uint64 { return s.ps.version }

// Scheme returns the partitioning scheme of the pinned table.
func (s *TableSnap) Scheme() PartScheme { return s.ps.layout.scheme }

// NumParts returns the number of partition streams in this view: 1 for
// unpartitioned tables and for the single-partition views Part returns.
func (s *TableSnap) NumParts() int {
	if s.d != nil {
		return 1
	}
	return len(s.ps.datas)
}

// Part returns the pinned view of partition i alone. It behaves
// exactly like an unpartitioned table holding just that partition's
// rows (partition-local ids), which is what lets every read path —
// scans, segment iteration, statistics — run per-partition without
// partition-specific code.
func (s *TableSnap) Part(i int) *TableSnap {
	if s.d != nil {
		if i != 0 {
			panic("store: Part on a single-partition view")
		}
		return s
	}
	return &TableSnap{Meta: s.Meta, colIdx: s.colIdx, ps: s.ps, d: s.ps.datas[i], spill: s.spill}
}

// PartStart returns the global row offset of partition i in the
// canonical (concatenated) order; PartStart(NumParts()) is the total
// row count.
func (s *TableSnap) PartStart(i int) int { return s.ps.cum[i] }

// data0 is the representative tableData for properties uniform across
// partitions (the seal boundary).
func (s *TableSnap) data0() *tableData {
	if s.d != nil {
		return s.d
	}
	return s.ps.datas[0]
}

// ColIndex returns the position of the named column, or -1.
func (s *TableSnap) ColIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// Len returns the row count.
func (s *TableSnap) Len() int {
	if s.d != nil {
		return len(s.d.rows)
	}
	return s.ps.totalRows()
}

// Rows returns the snapshot's rows (canonical order: partitions
// concatenated). Callers must not mutate them.
func (s *TableSnap) Rows() []Row {
	if s.d != nil {
		return s.d.rows
	}
	return s.ps.mergedRows()
}

// Row returns row i.
func (s *TableSnap) Row(i int) Row {
	if s.d != nil {
		return s.d.rows[i]
	}
	ps := s.ps
	p := sort.Search(len(ps.datas), func(p int) bool { return ps.cum[p+1] > i })
	return ps.datas[p].rows[i-ps.cum[p]]
}

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
	if s.d == nil {
		return s.mergedStats(col), true
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

// mergedStats merges the per-partition statistics of one column. Row
// and NULL counts and min/max merge exactly; the distinct count is the
// sum capped at the non-NULL row count — exact for the hash partition
// column (whose value sets are disjoint by routing), an upper-bound
// estimate otherwise, which is the planner's tolerance anyway.
func (s *TableSnap) mergedStats(col string) ColStats {
	m := s.ps.merged
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.stats[col]; ok {
		return st
	}
	var st ColStats
	for p := range s.ps.datas {
		pst, _ := s.Part(p).Stats(col)
		st.Rows += pst.Rows
		st.Nulls += pst.Nulls
		st.Distinct += pst.Distinct
		if st.Min.IsNull() || (!pst.Min.IsNull() && Compare(pst.Min, st.Min) < 0) {
			st.Min = pst.Min
		}
		if st.Max.IsNull() || (!pst.Max.IsNull() && Compare(pst.Max, st.Max) > 0) {
			st.Max = pst.Max
		}
	}
	if nn := st.Rows - st.Nulls; st.Distinct > nn {
		st.Distinct = nn
	}
	if m.stats == nil {
		m.stats = make(map[string]ColStats, len(s.Meta.Columns))
	}
	m.stats[col] = st
	return st
}

// Segments returns the snapshot's segment layout: sealed compressed
// segments covering full chunks of the row set plus at most one plain
// mutable tail, built lazily and cached on the pinned version. Writers
// extend a built layout by sharing the sealed prefix by pointer and
// re-encoding only the tail (see extendSegs).
func (s *TableSnap) Segments() *SegSet {
	if s.d == nil {
		return s.mergedSegments()
	}
	ss := partSegments(s.Meta, s.d)
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

// partSegments builds (or returns) one tableData's segment layout under
// its own cache lock — the per-partition unit both the single-partition
// fast path and the merged view compose from.
func partSegments(meta *schema.Table, d *tableData) *SegSet {
	c := d.caches
	c.segsMu.Lock()
	defer c.segsMu.Unlock()
	if c.segs == nil {
		c.segs = buildSegments(meta, d.rows, d.segRows)
	}
	return c.segs
}

// mergedSegments concatenates the per-partition segment layouts in
// canonical order: the same *Segment values (so segment-cache identity
// and adoption are shared with per-partition readers) under global
// start offsets. Each partition contributes its own seal boundary and
// at most one unsealed tail; Locate is a binary search over starts, so
// unsealed segments mid-stream are harmless.
func (s *TableSnap) mergedSegments() *SegSet {
	m := s.ps.merged
	m.mu.Lock()
	if m.segs == nil {
		var segs []*Segment
		var starts []int
		for p, d := range s.ps.datas {
			pss := partSegments(s.Meta, d)
			base := s.ps.cum[p]
			for si, seg := range pss.Segs {
				segs = append(segs, seg)
				starts = append(starts, base+pss.Start[si])
			}
		}
		m.segs = &SegSet{Segs: segs, Start: starts, N: s.ps.totalRows()}
	}
	ss := m.segs
	m.mu.Unlock()
	if s.spill != nil {
		s.spill.adopt(ss)
	}
	return ss
}

// SegmentRows returns the snapshot's seal boundary (rows per sealed
// segment).
func (s *TableSnap) SegmentRows() int {
	if sr := s.data0().segRows; sr > 0 {
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
		v += t.ps.version
	}
	return v
}

// TableVersion returns the pinned version of the named table, or 0.
func (s *Snapshot) TableVersion(name string) uint64 {
	if t := s.tables[name]; t != nil {
		return t.ps.version
	}
	return 0
}

// ---- write path ----

// publishRows appends staged (already validated and coerced) rows as
// the table's next version. On a partitioned table the batch routes
// per partition first, then each per-partition chunk publishes
// independently under that partition's writer lock — concurrent
// loaders overlap on disjoint partitions and pipeline across shared
// ones (the starting partition rotates per batch to break convoys).
// Each chunk is atomic: a reader's snapshot sees all of a partition's
// chunk or none of it. A racing repartition invalidates the routing;
// unpublished chunks re-route under the new layout and continue.
func (t *Table) publishRows(staged []Row) {
	pending := staged
	for len(pending) > 0 {
		ps := t.pset.Load()
		layout := ps.layout
		n := len(layout.locks)
		if n == 1 {
			if t.publishPart(layout, 0, pending) {
				return
			}
			continue
		}
		parts := make([][]Row, n)
		ci := layout.scheme.Ci
		var buf []byte
		var p int
		for _, row := range pending {
			p, buf = layout.scheme.routeKey(row[ci], buf)
			parts[p] = append(parts[p], row)
		}
		start := int(t.ticket.Add(1) % uint64(n))
		var leftover []Row
		for off := 0; off < n; off++ {
			p := (start + off) % n
			if len(parts[p]) == 0 {
				continue
			}
			if leftover != nil || !t.publishPart(layout, p, parts[p]) {
				leftover = append(leftover, parts[p]...)
			}
		}
		pending = leftover
	}
}

// publishPart publishes staged rows into partition p of the given
// layout. It returns false without publishing when the table was
// repartitioned since the caller routed (layout identity changed) —
// the rows would land in the wrong stream. Lock order is always
// partition lock first, pubMu last: the copy-on-write work happens
// under the partition lock alone, pubMu is held only to swap the
// partSet pointer.
func (t *Table) publishPart(layout *partLayout, p int, staged []Row) bool {
	mu := &layout.locks[p]
	mu.Lock()
	defer mu.Unlock()
	ps := t.pset.Load()
	if ps.layout != layout {
		return false
	}
	// Holding locks[p] pins the layout (a repartition needs every
	// partition lock) and freezes datas[p]; other partitions may
	// publish concurrently, so reload the latest set under pubMu.
	next := buildNext(t.Meta, ps.datas[p], staged)
	t.pubMu.Lock()
	cur := t.pset.Load()
	datas := make([]*tableData, len(cur.datas))
	copy(datas, cur.datas)
	datas[p] = next
	t.pset.Store(newPartSet(layout, datas, cur.version+1))
	t.pubMu.Unlock()
	return true
}

// buildNext appends staged rows to one partition stream copy-on-write:
// the segment layout carries over from the previous version when built
// there, statistics start empty and are recomputed on demand.
func buildNext(meta *schema.Table, cur *tableData, staged []Row) *tableData {
	next := &tableData{
		// Appending in place is safe: readers pinned to cur hold a
		// shorter slice header and never look past it, and writers are
		// serialized per partition, so each backing array position is
		// written once.
		rows:    append(cur.rows, staged...),
		version: cur.version + 1,
		segRows: cur.segRows,
	}
	next.caches = &dataCaches{segs: extendSegs(meta, cur, next)}
	return next
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
