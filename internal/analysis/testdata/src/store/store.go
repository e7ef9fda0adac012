// Package store is a fixture modeling the engine's MVCC store for the
// snappin analyzer tests: a Table whose convenience read accessors pin
// a fresh version per call, a TableSnap that pins once, and the
// DB/Snapshot pair producing them. Only the shapes matter — snappin
// matches methods by (package name, type name, method name).
package store

type Value struct{ i int64 }

type Row []Value

type ColStats struct{ Min, Max int64 }

type SegSet struct{ N int }

type tableData struct {
	rows    []Row
	version uint64
}

type Table struct{ d *tableData }

func (t *Table) Snap() *TableSnap { return &TableSnap{d: t.d} }

func (t *Table) Version() uint64 { return t.d.version }

func (t *Table) Len() int { return t.Snap().Len() }

func (t *Table) Rows() []Row { return t.Snap().Rows() }

func (t *Table) Stats(col string) (ColStats, bool) { return t.Snap().Stats(col) }

func (t *Table) Segments() *SegSet { return t.Snap().Segments() }

type TableSnap struct{ d *tableData }

func (s *TableSnap) Len() int { return len(s.d.rows) }

func (s *TableSnap) Rows() []Row { return s.d.rows }

func (s *TableSnap) Stats(col string) (ColStats, bool) { return ColStats{}, false }

func (s *TableSnap) Segments() *SegSet { return &SegSet{} }

type DB struct{ t *Table }

func (db *DB) Table(name string) *Table { return db.t }

func (db *DB) Snapshot() *Snapshot { return &Snapshot{db: db} }

type Snapshot struct{ db *DB }

func (sn *Snapshot) Table(name string) *TableSnap { return sn.db.t.Snap() }
