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
func TestOneResidentStore(t *testing.T) {
	banned := regexp.MustCompile(`spill|evict|segcache|fault`)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkName := func(id *ast.Ident) {
		if id != nil && banned.MatchString(strings.ReplaceAll(strings.ToLower(id.Name), "default", "")) {
			t.Errorf("%s: %s is declared", fset.Position(id.Pos()), id.Name)
		}
	}
	sawCols := false
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "os" && !strings.HasSuffix(path, "csv.go") {
					t.Errorf("%s: imports os", fset.Position(imp.Pos()))
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
