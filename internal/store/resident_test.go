package store_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestOneResidentStore pins that the store holds its data in memory and
// nowhere else: a segment is plain data whose columns are always there
// to read. The segment cache, its spill directory, its eviction sweep
// and its fault-in path are declared again in no non-test file of the
// package (no declared name says spill, evict, segcache or fault —
// "default" aside); Segment.Cols takes no argument and returns no
// error, so no reader has a read failure to handle; and csv.go, the
// loader of files a caller names, is the only file that imports os.
// Nor is a segment serialized to bytes: no package-level name starts
// with Encode or Decode, and no file imports encoding/binary or
// hash/crc32. (SegCol.DecodeInts, a method, decompresses a column for
// a scan.)
func TestOneResidentStore(t *testing.T) {
	banned := regexp.MustCompile(`spill|evict|segcache|fault`)
	codec := regexp.MustCompile(`^(Encode|Decode)`)
	fset, pkgs := parseStore(t)
	checkName := func(id *ast.Ident) {
		if id != nil && banned.MatchString(strings.ReplaceAll(strings.ToLower(id.Name), "default", "")) {
			t.Errorf("%s: %s is declared", fset.Position(id.Pos()), id.Name)
		}
	}
	sawCols := false
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); {
				case p == "os" && !strings.HasSuffix(path, "csv.go"), p == "encoding/binary", p == "hash/crc32":
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
				}
			}
			for _, id := range packageNames(f) {
				if codec.MatchString(id.Name) {
					t.Errorf("%s: %s is declared", fset.Position(id.Pos()), id.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					checkName(n.Name)
					if n.Name.Name == "Cols" && n.Recv != nil && recvType(n.Recv) == "Segment" {
						sawCols = true
						if n.Type.Params.NumFields() > 0 || returnsError(n.Type) {
							t.Errorf("%s: Segment.Cols takes a parameter or returns an error", fset.Position(n.Pos()))
						}
					}
				case *ast.TypeSpec:
					checkName(n.Name)
				case *ast.ValueSpec:
					for _, id := range n.Names {
						checkName(id)
					}
				case *ast.Field:
					for _, id := range n.Names {
						checkName(id)
					}
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						for _, e := range n.Lhs {
							id, _ := e.(*ast.Ident)
							checkName(id)
						}
					}
				}
				return true
			})
		}
	}
	if !sawCols {
		t.Error("Segment.Cols is not declared; this test has gone stale")
	}
}

// parseStore parses the package's non-test files.
func parseStore(t *testing.T) (*token.FileSet, map[string]*ast.Package) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// packageNames lists the names a file declares at package level: its
// functions (not methods), types, variables and constants.
func packageNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					ids = append(ids, sp.Name)
				case *ast.ValueSpec:
					ids = append(ids, sp.Names...)
				}
			}
		}
	}
	return ids
}

// recvType names a method receiver's type, pointer or not.
func recvType(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, _ := typ.(*ast.Ident)
	if id == nil {
		return ""
	}
	return id.Name
}

// returnsError reports whether a function type has an error result.
func returnsError(ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, r := range ft.Results.List {
		if id, ok := r.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

// TestOneIntEncoding pins the sealed integer layouts at two: plain
// (Ints) and 16-bit frame-of-reference (Base plus D16 deltas).
// SegEncoding declares exactly SegPlain, SegDict and SegFOR, and
// SegCol declares no integer field, scalar or slice, besides those
// three and the dictionary's Codes — no run-length runs and no other
// delta width. (N, a plain int, is the row count.)
func TestOneIntEncoding(t *testing.T) {
	fset, pkgs := parseStore(t)
	ints := regexp.MustCompile(`^(u?int(8|16|32|64)?|byte|rune|uintptr)$`)
	allowed := map[string]bool{"Ints": true, "Base": true, "D16": true, "Codes": true}
	var encs []string
	sawCol := false
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				// A const spec with neither type nor value repeats the
				// type of the one before it (the iota form).
				typ := ""
				for _, sp := range gd.Specs {
					switch sp := sp.(type) {
					case *ast.ValueSpec:
						if gd.Tok != token.CONST {
							continue
						}
						if sp.Type != nil {
							id, _ := sp.Type.(*ast.Ident)
							typ = ""
							if id != nil {
								typ = id.Name
							}
						} else if len(sp.Values) > 0 {
							typ = ""
						}
						if typ == "SegEncoding" {
							for _, id := range sp.Names {
								encs = append(encs, id.Name)
							}
						}
					case *ast.TypeSpec:
						st, ok := sp.Type.(*ast.StructType)
						if sp.Name.Name != "SegCol" || !ok {
							continue
						}
						sawCol = true
						for _, fld := range st.Fields.List {
							elem, slice := fld.Type, false
							if at, ok := elem.(*ast.ArrayType); ok {
								elem, slice = at.Elt, true
							}
							id, _ := elem.(*ast.Ident)
							if id == nil || !ints.MatchString(id.Name) || (!slice && id.Name == "int") {
								continue
							}
							for _, name := range fld.Names {
								if !allowed[name.Name] {
									t.Errorf("%s: SegCol declares integer field %s", fset.Position(name.Pos()), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	if !sawCol {
		t.Error("SegCol is not declared; this test has gone stale")
	}
	if got, want := strings.Join(encs, " "), "SegPlain SegDict SegFOR"; got != want {
		t.Errorf("SegEncoding declares %q, want %q", got, want)
	}
}
