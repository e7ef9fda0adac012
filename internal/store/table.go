package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
)

// Table is the mutable handle of one relation. Its contents live in
// immutable snapshots (see snapshot.go): writers build the next
// version copy-on-write and publish it atomically; readers pin a
// version with Snap (or database-wide with DB.Snapshot) and are never
// blocked by — or exposed to — concurrent writers. The read accessors
// on Table itself each pin the current version, so two successive
// calls may observe different versions; queries that need a mutually
// consistent view must go through one TableSnap/Snapshot.
//
// A table is one or more partition streams (see partition.go). Writers
// to one partition serialize on that partition's lock and do all their
// copy-on-write work under it; pubMu is held only for the final
// partSet swap, so concurrent loaders into different partitions
// overlap everywhere except the pointer publish itself.
type Table struct {
	Meta   *schema.Table
	colIdx map[string]int

	pubMu  sync.Mutex              // serializes partSet publication only
	pset   atomic.Pointer[partSet] // current published partition set
	ticket atomic.Uint64           // rotates partition publish order across loaders

	// spill, when set (DB.EnableSpill), is the segment cache that
	// adopts this table's sealed segments: serialized write-once to
	// disk, payload evictable under the cache's byte budget.
	spill atomic.Pointer[SegCache]
}

// NewTable creates an empty table for the given schema table.
func NewTable(meta *schema.Table) *Table {
	t := &Table{
		Meta:   meta,
		colIdx: make(map[string]int, len(meta.Columns)),
	}
	for i, c := range meta.Columns {
		t.colIdx[c.Name] = i
	}
	layout := &partLayout{scheme: PartScheme{Kind: PartNone, N: 1}, locks: make([]sync.Mutex, 1)}
	t.pset.Store(newPartSet(layout, []*tableData{{caches: &dataCaches{}}}, 0))
	return t
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Version returns the table's current data version: a per-table
// monotonic counter bumped by every row mutation (and only by row
// mutations — index DDL leaves it unchanged; repartitioning bumps it,
// since the canonical row order changes). Equal versions imply equal
// contents, the invalidation token for caches keyed on this table's
// data.
func (t *Table) Version() uint64 { return t.pset.Load().version }

// PartScheme returns the table's current partitioning scheme.
func (t *Table) PartScheme() PartScheme { return t.pset.Load().layout.scheme }

// Len returns the current row count.
func (t *Table) Len() int { return t.Snap().Len() }

// Rows returns the current version's rows. Callers must not mutate
// them.
func (t *Table) Rows() []Row { return t.Snap().Rows() }

// Row returns row i of the current version.
func (t *Table) Row(i int) Row { return t.Snap().Row(i) }

// Insert appends a row after validating arity and column types. INT
// values are accepted into FLOAT columns (widening); NULL is accepted
// anywhere. Indexes are maintained on the published snapshot.
func (t *Table) Insert(vals ...Value) error {
	if len(vals) != len(t.Meta.Columns) {
		return fmt.Errorf("store: table %s expects %d values, got %d",
			t.Meta.Name, len(t.Meta.Columns), len(vals))
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		coerced, err := coerce(v, t.Meta.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("store: table %s column %s: %w",
				t.Meta.Name, t.Meta.Columns[i].Name, err)
		}
		row[i] = coerced
	}
	t.publishRows([]Row{row})
	return nil
}

// BulkInsert appends many rows as one new version: rows are validated
// and coerced like Insert, then published in a single atomic step with
// indexes, statistics and segments maintained incrementally on
// the new snapshot (merge into the ordered runs, copy-on-write into
// the hash buckets — never a full rebuild). Concurrent readers see
// either none or all of the batch. Loaders (store/csv,
// internal/dataset) should prefer this for anything beyond a handful
// of rows.
func (t *Table) BulkInsert(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	// Validate and coerce every row before publishing, so a mid-batch
	// error leaves no partial mutation behind (Insert gives the same
	// guarantee per row). The staged rows carve slices out of one
	// arena sized up front from the batch's row count — len(rows)
	// small allocations collapse into one, which is most of the
	// loader's alloc/op budget at bulk sizes.
	nc := len(t.Meta.Columns)
	staged := make([]Row, len(rows))
	arena := make(Row, len(rows)*nc)
	for ri, vals := range rows {
		if len(vals) != nc {
			return fmt.Errorf("store: table %s expects %d values, got %d",
				t.Meta.Name, nc, len(vals))
		}
		row := arena[ri*nc : (ri+1)*nc : (ri+1)*nc]
		for i, v := range vals {
			coerced, err := coerce(v, t.Meta.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("store: table %s column %s: %w",
					t.Meta.Name, t.Meta.Columns[i].Name, err)
			}
			row[i] = coerced
		}
		staged[ri] = row
	}
	t.publishRows(staged)
	return nil
}

func coerce(v Value, want schema.ColType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch want {
	case schema.Int:
		if v.Kind() == KindInt {
			return v, nil
		}
	case schema.Float:
		switch v.Kind() {
		case KindFloat:
			return v, nil
		case KindInt:
			return Float(float64(v.Int64())), nil
		}
	case schema.Text:
		if v.Kind() == KindText {
			return v, nil
		}
	case schema.Bool:
		if v.Kind() == KindBool {
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("cannot store %s value into %s column", v.Kind(), want)
}

// BuildIndex creates (or rebuilds) a hash index on the named column,
// along with an ordered companion index that serves range predicates.
// Like every write it publishes a new snapshot; pinned readers keep
// the index set they planned against.
func (t *Table) BuildIndex(col string) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return errNoColumn(t, col)
	}
	t.publishIndex(func(cur, next *tableData) {
		idx := make(map[string][]int)
		for id, row := range cur.rows {
			k := row[ci].Key()
			idx[k] = append(idx[k], id)
		}
		next.hash = cloneIndexMap(cur.hash)
		next.hash[col] = idx
		next.ord = withOrderedIndex(cur, col, ci)
	})
	return nil
}

// BuildOrderedIndex creates (or rebuilds) an ordered index on the
// named column: row ids sorted by column value (NULLs first,
// store.Compare order). It enables LookupRange for range predicates.
func (t *Table) BuildOrderedIndex(col string) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return errNoColumn(t, col)
	}
	t.publishIndex(func(cur, next *tableData) {
		next.ord = withOrderedIndex(cur, col, ci)
	})
	return nil
}

func cloneIndexMap(m map[string]map[string][]int) map[string]map[string][]int {
	out := make(map[string]map[string][]int, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// HasIndex reports whether the column currently has a hash index.
func (t *Table) HasIndex(col string) bool { return t.Snap().HasIndex(col) }

// LookupIndex probes the current version's hash index (see
// TableSnap.LookupIndex).
func (t *Table) LookupIndex(col string, v Value) ([]int, bool) {
	return t.Snap().LookupIndex(col, v)
}

// HasOrderedIndex reports whether the column currently has an ordered
// index.
func (t *Table) HasOrderedIndex(col string) bool { return t.Snap().HasOrderedIndex(col) }

// LookupRange scans the current version's ordered index (see
// TableSnap.LookupRange).
func (t *Table) LookupRange(col string, lo, hi *Value, loIncl, hiIncl bool) ([]int, bool) {
	return t.Snap().LookupRange(col, lo, hi, loIncl, hiIncl)
}

// Stats returns statistics for the named column at the current
// version (see TableSnap.Stats).
func (t *Table) Stats(col string) (ColStats, bool) { return t.Snap().Stats(col) }

// Segments returns the current version's segment layout (see
// TableSnap.Segments).
func (t *Table) Segments() *SegSet { return t.Snap().Segments() }

// SetSegmentRows changes the table's seal boundary (rows per sealed
// segment; 0 restores the default) and republishes the current data
// under it with a fresh segment cache. Contents are unchanged so the
// version does not move. Intended for tests and experiments that need
// small segments or boundary-straddling row counts.
func (t *Table) SetSegmentRows(n int) {
	layout := t.lockAll()
	defer unlockAll(layout)
	ps := t.pset.Load()
	datas := make([]*tableData, len(ps.datas))
	for i, cur := range ps.datas {
		datas[i] = &tableData{
			rows:    cur.rows,
			hash:    cur.hash,
			ord:     cur.ord,
			version: cur.version,
			segRows: n,
			caches:  &dataCaches{},
		}
	}
	t.pubMu.Lock()
	t.pset.Store(newPartSet(layout, datas, ps.version))
	t.pubMu.Unlock()
}

// DropIndex removes the hash and ordered indexes on the named column,
// if any.
func (t *Table) DropIndex(col string) {
	t.publishIndex(func(cur, next *tableData) {
		next.hash = cloneIndexMap(cur.hash)
		delete(next.hash, col)
		next.ord = make(map[string][]int, len(cur.ord))
		for k, v := range cur.ord {
			next.ord[k] = v
		}
		delete(next.ord, col)
	})
}

func errNoColumn(t *Table, col string) error {
	return fmt.Errorf("store: table %s has no column %s", t.Meta.Name, col)
}

// DB is a collection of populated tables bound to a schema.
type DB struct {
	Schema *schema.Schema
	tables map[string]*Table
	spill  atomic.Pointer[SegCache]
}

// EnableSpill turns memory into a cache: sealed segments of every
// table are adopted by a segment cache that serializes them write-once
// into dir and evicts decoded payloads (keeping zone maps resident)
// when their total bytes exceed budget (DefaultSegCacheBytes when
// budget <= 0). Idempotent — the first successful call wins and later
// calls are no-ops, so layered setup code can enable it defensively.
func (db *DB) EnableSpill(dir string, budget int64) error {
	if db.spill.Load() != nil {
		return nil
	}
	c, err := NewSegCache(dir, budget)
	if err != nil {
		return err
	}
	if !db.spill.CompareAndSwap(nil, c) {
		return nil // lost the race to an earlier enable
	}
	for _, t := range db.tables {
		t.spill.Store(c)
	}
	return nil
}

// SegCache returns the database's segment cache, or nil when spilling
// was never enabled.
func (db *DB) SegCache() *SegCache { return db.spill.Load() }

// NewDB creates a database with one empty table per schema table.
func NewDB(s *schema.Schema) *DB {
	db := &DB{Schema: s, tables: make(map[string]*Table, len(s.Tables))}
	for _, mt := range s.Tables {
		db.tables[mt.Name] = NewTable(mt)
	}
	return db
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Insert adds a row to the named table.
func (db *DB) Insert(table string, vals ...Value) error {
	t := db.tables[table]
	if t == nil {
		return fmt.Errorf("store: unknown table %s", table)
	}
	return t.Insert(vals...)
}

// BulkInsert adds many rows to the named table as one atomically
// published snapshot (see Table.BulkInsert).
func (db *DB) BulkInsert(table string, rows []Row) error {
	t := db.tables[table]
	if t == nil {
		return fmt.Errorf("store: unknown table %s", table)
	}
	return t.BulkInsert(rows)
}

// PartitionTable reshapes the named table into the given scheme's
// partition streams (see Table.Partition).
func (db *DB) PartitionTable(name string, scheme PartScheme) error {
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("store: unknown table %s", name)
	}
	return t.Partition(scheme)
}

// MustBulkInsert is BulkInsert panicking on error, for dataset
// builders whose data is statically known to be well-typed.
func (db *DB) MustBulkInsert(table string, rows []Row) {
	if err := db.BulkInsert(table, rows); err != nil {
		panic(err)
	}
}

// MustInsert is Insert panicking on error, for dataset builders whose
// data is statically known to be well-typed.
func (db *DB) MustInsert(table string, vals ...Value) {
	if err := db.Insert(table, vals...); err != nil {
		panic(err)
	}
}

// BuildPrimaryIndexes creates hash indexes on every primary key and
// foreign key column, the access paths the executor exploits.
func (db *DB) BuildPrimaryIndexes() error {
	for _, mt := range db.Schema.Tables {
		if mt.PrimaryKey != "" {
			if err := db.tables[mt.Name].BuildIndex(mt.PrimaryKey); err != nil {
				return err
			}
		}
	}
	for _, fk := range db.Schema.ForeignKeys {
		if err := db.tables[fk.Table].BuildIndex(fk.Column); err != nil {
			return err
		}
		if err := db.tables[fk.RefTable].BuildIndex(fk.RefColumn); err != nil {
			return err
		}
	}
	return nil
}

// DropAllIndexes removes every index in the database — the "scan"
// configuration of the access-path experiment (F2).
func (db *DB) DropAllIndexes() {
	for _, t := range db.tables {
		t.publishIndex(func(cur, next *tableData) {
			next.hash = nil
			next.ord = nil
		})
	}
}

// DataVersion is a monotonic counter over the database's contents:
// any row mutation changes it, so equal versions imply equal data.
// Whole-database caches use it as their invalidation token; caches
// that want write locality should key on per-table versions instead
// (TableVersion), which writes to other tables leave untouched.
func (db *DB) DataVersion() uint64 {
	var v uint64
	for _, t := range db.tables {
		v += t.Version()
	}
	return v
}

// TableVersion returns the named table's current data version, or 0
// for an unknown table.
func (db *DB) TableVersion(name string) uint64 {
	if t := db.tables[name]; t != nil {
		return t.Version()
	}
	return 0
}

// TotalRows returns the number of rows across all tables.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}
