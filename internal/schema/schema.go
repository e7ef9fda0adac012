// Package schema models relational database schemas: tables, typed
// columns, primary and foreign keys, and natural-language metadata
// (synonyms) that the semantic index consumes. It also provides the
// join graph over foreign keys and a Steiner-tree-style search that
// finds the minimal set of joins connecting the tables a question
// mentions — the heart of rule-based query interpretation.
package schema

import "fmt"

// ColType is the type of a column.
type ColType int

const (
	Int ColType = iota
	Float
	Text
	Bool
)

func (t ColType) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Text:
		return "TEXT"
	case Bool:
		return "BOOL"
	}
	return "?"
}

// IsNumeric reports whether the type supports arithmetic aggregation.
func (t ColType) IsNumeric() bool { return t == Int || t == Float }

// Column describes one attribute of a table.
type Column struct {
	Name     string // canonical column name (snake_case)
	Type     ColType
	Synonyms []string // extra natural-language names ("pay" for salary)
	// NameLike marks columns whose values identify entities (person or
	// place names, titles); the value index only indexes these, which
	// bounds its size the way era systems bounded their dictionaries.
	NameLike bool
}

// ForeignKey links Table.Column to RefTable.RefColumn.
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", fk.Table, fk.Column, fk.RefTable, fk.RefColumn)
}

// Table describes a relation.
type Table struct {
	Name       string // canonical plural-ish table name ("students")
	Columns    []Column
	PrimaryKey string
	Synonyms   []string // natural-language names ("pupil", "learner")
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// NameColumn returns the first NameLike text column — the column used
// to render an entity of this table in answers ("students" -> name).
// Falls back to the first text column, then the primary key.
func (t *Table) NameColumn() string {
	for _, c := range t.Columns {
		if c.NameLike && c.Type == Text {
			return c.Name
		}
	}
	for _, c := range t.Columns {
		if c.Type == Text {
			return c.Name
		}
	}
	if t.PrimaryKey != "" {
		return t.PrimaryKey
	}
	return t.Columns[0].Name
}

// Schema is a set of tables and foreign keys. It is immutable after
// New, which also builds the join graph every JoinPath call reads.
type Schema struct {
	Name        string
	Tables      []*Table
	ForeignKeys []ForeignKey

	byName map[string]*Table
	adj    map[string][]edge // undirected FK graph, see joinGraph
}

// New creates a schema and validates it.
func New(name string, tables []*Table, fks []ForeignKey) (*Schema, error) {
	s := &Schema{Name: name, Tables: tables, ForeignKeys: fks,
		byName: make(map[string]*Table, len(tables))}
	for _, t := range tables {
		if t.Name == "" {
			return nil, fmt.Errorf("schema %s: table with empty name", name)
		}
		if len(t.Columns) == 0 {
			return nil, fmt.Errorf("schema %s: table %s has no columns", name, t.Name)
		}
		if _, dup := s.byName[t.Name]; dup {
			return nil, fmt.Errorf("schema %s: duplicate table %s", name, t.Name)
		}
		seen := map[string]bool{}
		for _, c := range t.Columns {
			if seen[c.Name] {
				return nil, fmt.Errorf("schema %s: duplicate column %s.%s", name, t.Name, c.Name)
			}
			seen[c.Name] = true
		}
		if t.PrimaryKey != "" && t.Column(t.PrimaryKey) == nil {
			return nil, fmt.Errorf("schema %s: table %s primary key %s not a column", name, t.Name, t.PrimaryKey)
		}
		s.byName[t.Name] = t
	}
	for _, fk := range fks {
		lt := s.byName[fk.Table]
		rt := s.byName[fk.RefTable]
		if lt == nil || rt == nil {
			return nil, fmt.Errorf("schema %s: foreign key %v references unknown table", name, fk)
		}
		if lt.Column(fk.Column) == nil || rt.Column(fk.RefColumn) == nil {
			return nil, fmt.Errorf("schema %s: foreign key %v references unknown column", name, fk)
		}
	}
	s.adj = joinGraph(fks)
	return s, nil
}

// MustNew is New panicking on error, for static schema definitions.
func MustNew(name string, tables []*Table, fks []ForeignKey) *Schema {
	s, err := New(name, tables, fks)
	if err != nil {
		panic(err)
	}
	return s
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.byName[name] }

// TableNames returns table names in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		out[i] = t.Name
	}
	return out
}

// ColumnRef names a column inside a table.
type ColumnRef struct {
	Table  string
	Column string
}

func (r ColumnRef) String() string { return r.Table + "." + r.Column }
