package sql

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// ParseSchema parses a sequence of CREATE TABLE statements into a
// schema, so users can point the interface at their own data without
// writing Go. Supported form:
//
//	CREATE TABLE students (
//	    id INT PRIMARY KEY,
//	    name TEXT SYNONYMS ('pupil', 'learner'),
//	    dept_id INT REFERENCES departments(dept_id),
//	    gpa FLOAT
//	) SYNONYMS ('student');
//
// Types: INT/INTEGER, FLOAT/REAL/DOUBLE, TEXT/VARCHAR/STRING/CHAR,
// BOOL/BOOLEAN. The non-standard SYNONYMS clause feeds the semantic
// index; NAMED marks a column as NameLike (entity-identifying) for the
// value index — by convention, TEXT columns called "name" or "title"
// are NameLike automatically. Names lex as in queries: ASCII
// [A-Za-z_][A-Za-z0-9_]*, lower-cased; any other byte outside a quoted
// synonym is an error.
func ParseSchema(name, src string) (*schema.Schema, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &ddlParser{parser: parser{toks: toks}}
	var tables []*schema.Table
	var fks []schema.ForeignKey
	for !p.atEOF() {
		t, tfks, err := p.parseCreateTable()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
		fks = append(fks, tfks...)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("sql: no CREATE TABLE statements found")
	}
	return schema.New(name, tables, fks)
}

type ddlParser struct {
	parser
}

// acceptIdent consumes an identifier with the given (lowercase) text.
// DDL keywords (CREATE, TABLE, ...) are ordinary identifiers to the
// lexer since they are not SELECT keywords.
func (p *ddlParser) acceptIdent(word string) bool {
	if t := p.cur(); t.kind == tkIdent && t.text == word {
		p.pos++
		return true
	}
	return false
}

func (p *ddlParser) expectIdentWord(word string) error {
	if !p.acceptIdent(word) {
		return p.errorf("expected %s, found %q", strings.ToUpper(word), p.cur().text)
	}
	return nil
}

func (p *ddlParser) ident() (string, error) {
	t := p.cur()
	if t.kind != tkIdent {
		return "", p.errorf("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *ddlParser) parseCreateTable() (*schema.Table, []schema.ForeignKey, error) {
	if err := p.expectIdentWord("create"); err != nil {
		return nil, nil, err
	}
	if err := p.expectIdentWord("table"); err != nil {
		return nil, nil, err
	}
	tableName, err := p.ident()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, nil, err
	}
	t := &schema.Table{Name: tableName}
	var fks []schema.ForeignKey
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, nil, err
		}
		col := schema.Column{Name: colName}
		typName, err := p.ident()
		if err != nil {
			return nil, nil, err
		}
		ct, ok := ddlType(typName)
		if !ok {
			return nil, nil, p.errorf("unknown column type %q", typName)
		}
		col.Type = ct
		// NameLike convention for display columns.
		if ct == schema.Text && (colName == "name" || colName == "title") {
			col.NameLike = true
		}

		// Column options, in any order.
		for {
			switch {
			case p.acceptIdent("primary"):
				if err := p.expectIdentWord("key"); err != nil {
					return nil, nil, err
				}
				t.PrimaryKey = colName
			case p.acceptIdent("named"):
				col.NameLike = true
			case p.acceptIdent("references"):
				refTable, err := p.ident()
				if err != nil {
					return nil, nil, err
				}
				if err := p.expectOp("("); err != nil {
					return nil, nil, err
				}
				refCol, err := p.ident()
				if err != nil {
					return nil, nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, nil, err
				}
				fks = append(fks, schema.ForeignKey{
					Table: tableName, Column: colName,
					RefTable: refTable, RefColumn: refCol,
				})
			case p.acceptIdent("synonyms"):
				syns, err := p.parseSynonymList()
				if err != nil {
					return nil, nil, err
				}
				col.Synonyms = append(col.Synonyms, syns...)
			case p.acceptKeyword("NOT"):
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, nil, err
				}
				// NOT NULL accepted and ignored (the store allows NULLs;
				// datasets enforce their own integrity).
			default:
				goto colDone
			}
		}
	colDone:
		t.Columns = append(t.Columns, col)
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, nil, err
		}
		break
	}
	// Table-level SYNONYMS clause.
	if p.acceptIdent("synonyms") {
		syns, err := p.parseSynonymList()
		if err != nil {
			return nil, nil, err
		}
		t.Synonyms = append(t.Synonyms, syns...)
	}
	return t, fks, nil
}

func (p *ddlParser) parseSynonymList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		t := p.cur()
		if t.kind != tkString && t.kind != tkIdent {
			return nil, p.errorf("expected synonym string, found %q", t.text)
		}
		p.advance()
		out = append(out, t.text)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func ddlType(name string) (schema.ColType, bool) {
	switch strings.ToLower(name) {
	case "int", "integer", "bigint", "smallint":
		return schema.Int, true
	case "float", "real", "double", "decimal", "numeric":
		return schema.Float, true
	case "text", "varchar", "string", "char":
		return schema.Text, true
	case "bool", "boolean":
		return schema.Bool, true
	}
	return 0, false
}
