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
	t.data.Store(&tableData{segs: &SegSet{}})
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
	return t.appendRows([]Row{vals})
}

// BulkInsert appends many rows as one new version: rows are validated
// like Insert and written straight into the table's segments — the
// tail's plain columns, and every chunk the batch fills sealed before
// the version publishes. Concurrent readers see either none or all of
// the batch, and a row that does not fit leaves the table unchanged.
// The table keeps no reference to rows. Loaders (store/csv,
// internal/dataset) should prefer this for anything beyond a handful
// of rows.
func (t *Table) BulkInsert(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	return t.appendRows(rows)
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
// segment; 0 restores the default) and reseals the current data under
// it: the rows are decoded and written again, at the same version.
// Intended for tests and experiments that need small segments or
// boundary-straddling row counts.
func (t *Table) SetSegmentRows(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.data.Load()
	segs, _ := appendSegs(t.Meta, &SegSet{}, t.snapOf(cur).Rows(), n) // decoded rows fit their columns
	t.data.Store(&tableData{
		segs:    segs,
		version: cur.version,
		segRows: n,
	})
}

// DB is a collection of populated tables bound to a schema.
type DB struct {
	Schema *schema.Schema
	tables map[string]*Table
}

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
