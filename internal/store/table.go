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
// blocked by — or exposed to — concurrent writers. Table has no read
// accessors of its own: every read of table data goes through a
// TableSnap (Snap) or a Snapshot (DB.Snapshot), so a reader cannot
// straddle two versions by accident.
//
// A table is one stream: writers serialize on mu and do all their
// copy-on-write work under it, then publish the next version with one
// pointer store, so a batch is atomic to every reader.
type Table struct {
	Meta   *schema.Table
	colIdx map[string]int

	mu   sync.Mutex                // serializes writers
	data atomic.Pointer[tableData] // current published version

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
	t.data.Store(&tableData{caches: &dataCaches{}})
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
// mutations — resealing leaves it unchanged). Equal versions imply
// equal contents, the invalidation token for caches keyed on this
// table's data.
func (t *Table) Version() uint64 { return t.data.Load().version }

// Insert appends a row after validating arity and column types. INT
// values are accepted into FLOAT columns (widening); NULL is accepted
// anywhere.
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
// and coerced like Insert, then published in a single atomic step,
// the segment layout extended incrementally on the new snapshot
// (sealed segments shared, only the tail re-encoded — never a full
// rebuild). Concurrent readers see
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

// SetSegmentRows changes the table's seal boundary (rows per sealed
// segment; 0 restores the default) and republishes the current data
// under it with a fresh segment cache. Contents are unchanged so the
// version does not move. Intended for tests and experiments that need
// small segments or boundary-straddling row counts.
func (t *Table) SetSegmentRows(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.data.Load()
	t.data.Store(&tableData{
		rows:    cur.rows,
		version: cur.version,
		segRows: n,
		caches:  &dataCaches{},
	})
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
		n += t.Snap().Len()
	}
	return n
}
