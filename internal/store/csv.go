package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/schema"
)

// loaderChunkRows sizes the cell arenas the loader carves rows from:
// one allocation per chunk of rows instead of one per row.
const loaderChunkRows = 8192

// LoadCSV reads rows into the named table. The first record must be a
// header naming the table's columns (any order; all columns required).
// Cells parse according to the column type; empty cells become NULL.
// Returns the number of rows inserted.
//
// When r is a regular file (anything with Stat, e.g. *os.File) the
// loader derives a row-count hint from the file size and the measured
// width of the first record, and preallocates its buffers to it. The
// hint only affects allocation, never correctness.
func (db *DB) LoadCSV(table string, r io.Reader) (int, error) {
	t := db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("store: unknown table %q", table)
	}
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	// The field strings are copied out by parseCell (or retained as
	// immutable string values), so the record slice itself can be
	// reused — one allocation per load instead of one per row.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("store: reading %s header: %w", table, err)
	}
	cols := t.Meta.Columns
	// Map header position -> column index.
	perm := make([]int, len(header))
	seen := make([]bool, len(cols))
	for hi, h := range header {
		name := strings.TrimSpace(strings.ToLower(h))
		idx := -1
		for ci := range cols {
			if cols[ci].Name == name {
				idx = ci
				break
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("store: table %s has no column %q", table, h)
		}
		if seen[idx] {
			return 0, fmt.Errorf("store: duplicate column %q in header", h)
		}
		seen[idx] = true
		perm[hi] = idx
	}
	for ci, ok := range seen {
		if !ok {
			return 0, fmt.Errorf("store: header missing column %q", cols[ci].Name)
		}
	}

	// Parse every record first, then append through the bulk path as
	// one published version.
	//
	// Buffers are sized from the row hint — remaining file bytes over
	// the first record's width — and rows are carved from chunked
	// arenas, so staging costs a handful of allocations instead of one
	// per row plus slice-growth copies.
	var size int64 = -1
	if st, ok := r.(interface{ Stat() (os.FileInfo, error) }); ok {
		if fi, err := st.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	headerEnd := cr.InputOffset()
	var rows []Row
	var arena Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("store: reading %s row %d: %w", table, len(rows)+2, err)
		}
		if rows == nil && size >= 0 {
			if recBytes := cr.InputOffset() - headerEnd; recBytes > 0 {
				rows = make([]Row, 0, int((size-headerEnd)/recBytes)+1)
			}
		}
		if len(arena) < len(cols) {
			arena = make(Row, loaderChunkRows*len(cols))
		}
		vals := arena[:len(cols):len(cols)]
		arena = arena[len(cols):]
		for hi, cell := range rec {
			v, err := parseCell(cell, cols[perm[hi]].Type)
			if err != nil {
				return 0, fmt.Errorf("store: %s row %d column %s: %w",
					table, len(rows)+2, cols[perm[hi]].Name, err)
			}
			vals[perm[hi]] = v
		}
		rows = append(rows, vals)
	}
	if err := t.BulkInsert(rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

func parseCell(cell string, want schema.ColType) (Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" || strings.EqualFold(cell, "null") {
		return Null(), nil
	}
	switch want {
	case schema.Int:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad integer %q", cell)
		}
		return Int(i), nil
	case schema.Float:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad number %q", cell)
		}
		return Float(f), nil
	case schema.Bool:
		switch strings.ToLower(cell) {
		case "true", "t", "1", "yes":
			return Bool(true), nil
		case "false", "f", "0", "no":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("bad boolean %q", cell)
	default:
		return Text(cell), nil
	}
}

// LoadCSVDir loads <table>.csv from dir for every schema table that
// has a matching file. Missing files are skipped (tables may
// legitimately start empty).
func (db *DB) LoadCSVDir(dir string) error {
	for _, t := range db.Schema.Tables {
		path := filepath.Join(dir, t.Name+".csv")
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		_, err = db.LoadCSV(t.Name, f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
	}
	return nil
}

// WriteCSV writes the table (header plus all rows of the current
// snapshot) to w, one segment at a time. NULLs are written as empty
// cells, round-tripping with LoadCSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Meta.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, len(t.Meta.Columns))
	for _, seg := range t.Snap().Segments().Segs {
		cols := seg.Cols()
		for r := 0; r < seg.N; r++ {
			for i, c := range cols {
				if c.IsNull(r) {
					rec[i] = ""
				} else {
					rec[i] = c.Value(r).String()
				}
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
