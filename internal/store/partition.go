package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file makes hash/range partitioning a first-class store concept.
// A partitioned Table is N independent partition streams: each has its
// own writer lock, MVCC version chain (tableData per partition), segment
// set, statistics and zone maps. Bulk loads route rows per partition and
// land under per-partition locks, so concurrent loaders scale instead of
// serializing on one table-wide mutex; a snapshot pins one immutable
// partSet — one version per partition — with a single atomic load.
//
// The canonical row order of a partitioned table is the concatenation of
// its partitions (partition 0 first). Every merged read view — rows,
// indexes, stats, segments — presents exactly that
// order, so execution layers that are unaware of partitioning stay
// row-for-row identical to a single-partition table with the same
// contents in the same canonical order.

// PartKind is the partitioning discipline of a table.
type PartKind uint8

const (
	// PartNone is the unpartitioned layout: one stream, one writer lock.
	PartNone PartKind = iota
	// PartHash routes a row by an FNV-1a hash of its partition-column
	// value, so an equality or IN probe on that column prunes to the
	// partitions its values route to. Tables hash-partitioned on their
	// join columns at the same degree are co-partitioned: equal keys
	// always land in the same partition index.
	PartHash
	// PartRange routes a row by binary search over ascending upper
	// bounds, so value-clustered predicates prune whole partitions.
	PartRange
)

func (k PartKind) String() string {
	switch k {
	case PartHash:
		return "hash"
	case PartRange:
		return "range"
	default:
		return "none"
	}
}

// PartScheme describes how a table's rows divide into partitions.
type PartScheme struct {
	Kind PartKind
	Col  string // partition column name
	Ci   int    // partition column index (resolved by Table.Partition)
	N    int    // partition count (1 for PartNone)

	// Bounds are PartRange's N-1 ascending split points: partition p
	// holds rows with Bounds[p-1] <= value < Bounds[p] (first and last
	// partitions unbounded below/above). NULLs route to partition 0,
	// where they sort in every other ordered structure too.
	Bounds []Value
}

// HashPartition builds an n-way hash scheme over col.
func HashPartition(col string, n int) PartScheme {
	return PartScheme{Kind: PartHash, Col: col, N: n}
}

// RangePartition builds a range scheme over col with the given ascending
// upper bounds (len(bounds)+1 partitions).
func RangePartition(col string, bounds []Value) PartScheme {
	return PartScheme{Kind: PartRange, Col: col, N: len(bounds) + 1, Bounds: bounds}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// routeKey routes one value, reusing buf for the value's canonical key
// bytes; it returns the partition index and the (possibly regrown)
// scratch buffer so bulk routing stays allocation-free per row.
func (s PartScheme) routeKey(v Value, buf []byte) (int, []byte) {
	switch s.Kind {
	case PartHash:
		buf = v.AppendKey(buf[:0])
		h := uint64(fnvOffset64)
		for _, b := range buf {
			h ^= uint64(b)
			h *= fnvPrime64
		}
		return int(h % uint64(s.N)), buf
	case PartRange:
		if v.IsNull() {
			return 0, buf
		}
		return sort.Search(len(s.Bounds), func(i int) bool { return Compare(v, s.Bounds[i]) < 0 }), buf
	default:
		return 0, buf
	}
}

// Route returns the partition index a row with this partition-column
// value belongs to.
func (s PartScheme) Route(v Value) int {
	p, _ := s.routeKey(v, nil)
	return p
}

// partLayout is the identity of one partitioned layout: the scheme plus
// the per-partition writer locks. Data publishes share the layout by
// pointer; only repartitioning replaces it, which is how writers detect
// (by pointer identity, under their partition lock) that the world
// changed under them and their routing must be redone.
type partLayout struct {
	scheme PartScheme
	locks  []sync.Mutex // one writer lock per partition
}

// partSet is one immutable published state of a table: one tableData
// version per partition under one layout. Readers pin the whole set
// with a single atomic load, so a snapshot observes every partition at
// one instant; version is the table-level data version caches key on.
type partSet struct {
	layout  *partLayout
	datas   []*tableData
	version uint64
	cum     []int // cum[p] = global row offset of partition p; len N+1

	// merged holds the lazily-built merged read views of this set (rows,
	// stats, segments in canonical order). Fresh per
	// partSet: a new publish starts a new merged cache, exactly like
	// dataCaches per tableData.
	merged *mergedData
}

type mergedData struct {
	mu    sync.Mutex
	rows  []Row
	segs  *SegSet
	stats map[string]ColStats
}

func newPartSet(layout *partLayout, datas []*tableData, version uint64) *partSet {
	ps := &partSet{
		layout:  layout,
		datas:   datas,
		version: version,
		cum:     make([]int, len(datas)+1),
		merged:  &mergedData{},
	}
	for i, d := range datas {
		ps.cum[i+1] = ps.cum[i] + len(d.rows)
	}
	return ps
}

func (ps *partSet) totalRows() int { return ps.cum[len(ps.datas)] }

// mergedRows concatenates the partition row sets in canonical order,
// cached on the set.
func (ps *partSet) mergedRows() []Row {
	m := ps.merged
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rows == nil {
		out := make([]Row, 0, ps.totalRows())
		for _, d := range ps.datas {
			out = append(out, d.rows...)
		}
		m.rows = out
	}
	return m.rows
}

// PartCounters counts partition visits on the scan path, threaded
// through execution the same way SegCounters is: Scanned partitions
// were read, Pruned were eliminated by bound predicates against the
// partition's resident statistics without touching rows or segments.
type PartCounters struct {
	Scanned atomic.Int64
	Pruned  atomic.Int64
}

// Partition reshapes the table into scheme's partition streams,
// rerouting every existing row and rebuilding indexes per partition.
// It is a row-order mutation (the canonical order becomes the new
// partition concatenation), so the data version bumps and caches keyed
// on it invalidate. Concurrent writers retry under the new layout;
// pinned readers keep the old one. N <= 1 (or Kind PartNone) restores
// the single-stream layout.
func (t *Table) Partition(scheme PartScheme) error {
	if scheme.Kind == PartNone || scheme.N <= 1 {
		scheme = PartScheme{Kind: PartNone, N: 1}
	} else {
		ci := t.ColIndex(scheme.Col)
		if ci < 0 {
			return errNoColumn(t, scheme.Col)
		}
		scheme.Ci = ci
		if scheme.Kind == PartRange {
			if len(scheme.Bounds) != scheme.N-1 {
				return fmt.Errorf("store: table %s: range scheme wants %d bounds for %d partitions, got %d",
					t.Meta.Name, scheme.N-1, scheme.N, len(scheme.Bounds))
			}
			for i := 1; i < len(scheme.Bounds); i++ {
				if Compare(scheme.Bounds[i-1], scheme.Bounds[i]) >= 0 {
					return fmt.Errorf("store: table %s: range bounds must ascend", t.Meta.Name)
				}
			}
		}
	}

	old := t.lockAll()
	defer unlockAll(old)
	ps := t.pset.Load()

	// Gather in canonical order, then reroute.
	all := ps.mergedRows()
	parts := make([][]Row, scheme.N)
	if scheme.N == 1 {
		parts[0] = append([]Row(nil), all...)
	} else {
		var buf []byte
		var p int
		for _, row := range all {
			p, buf = scheme.routeKey(row[scheme.Ci], buf)
			parts[p] = append(parts[p], row)
		}
	}

	// The index DDL set carries over: rebuild each index per partition
	// over partition-local row ids.
	d0 := ps.datas[0]
	hashCols := sortedKeys(d0.hash)
	ordCols := sortedKeys(d0.ord)
	datas := make([]*tableData, scheme.N)
	for p, rows := range parts {
		datas[p] = buildPartData(t.colIdx, rows, hashCols, ordCols, d0.segRows)
	}

	layout := &partLayout{scheme: scheme, locks: make([]sync.Mutex, scheme.N)}
	t.pubMu.Lock()
	t.pset.Store(newPartSet(layout, datas, ps.version+1))
	t.pubMu.Unlock()
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// buildPartData builds one partition's tableData from scratch: rows in
// routed order, hash and ordered indexes over partition-local ids.
func buildPartData(colIdx map[string]int, rows []Row, hashCols, ordCols []string, segRows int) *tableData {
	d := &tableData{rows: rows, segRows: segRows, caches: &dataCaches{}}
	if len(hashCols) > 0 {
		d.hash = make(map[string]map[string][]int, len(hashCols))
		for _, col := range hashCols {
			ci := colIdx[col]
			idx := make(map[string][]int)
			for id, row := range rows {
				k := row[ci].Key()
				idx[k] = append(idx[k], id)
			}
			d.hash[col] = idx
		}
	}
	for _, col := range ordCols {
		d.ord = withOrderedIndex(d, col, colIdx[col])
	}
	return d
}

// lockAll acquires every partition writer lock of the table's current
// layout (in ascending order — the canonical order all multi-partition
// lockers use, so two whole-table operations never deadlock) and
// returns that layout. Holding all its locks freezes the table: no
// publish and no repartition can proceed, and t.pset cannot change.
func (t *Table) lockAll() *partLayout {
	for {
		layout := t.pset.Load().layout
		for i := range layout.locks {
			layout.locks[i].Lock()
		}
		if t.pset.Load().layout == layout {
			return layout
		}
		unlockAll(layout) // raced a repartition; retry under the new layout
	}
}

func unlockAll(layout *partLayout) {
	for i := range layout.locks {
		layout.locks[i].Unlock()
	}
}
