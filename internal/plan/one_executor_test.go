package plan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestOneExecutor pins that the vectorized engine is the only executor:
// no operator has a row-at-a-time open(*Ctx), nothing in the package
// reads a table's row face (TableSnap.Rows), and neither the switch
// that used to pick the row engine (NoVec) nor the machinery that
// decided or bridged it (staticVec, rowSource) is declared or named
// again, here or in internal/exec. An expression the kernels cannot
// reproduce evaluates row by row inside a batch (vscalar), never
// through a second operator tree.
func TestOneExecutor(t *testing.T) {
	banned := map[string]bool{"NoVec": true, "staticVec": true, "rowSource": true}
	for _, dir := range []string{".", "../exec"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if banned[n.Name] {
							t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name)
						}
					case *ast.FuncDecl:
						if n.Recv != nil && n.Name.Name == "open" && takesCtx(n.Type) {
							t.Errorf("%s: %s has a row-at-a-time open(*Ctx)",
								fset.Position(n.Pos()), recvName(n.Recv))
						}
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok && dir == "." &&
							sel.Sel.Name == "Rows" && len(n.Args) == 0 {
							t.Errorf("%s: the executor reads a table's row face", fset.Position(n.Pos()))
						}
					}
					return true
				})
			}
		}
	}
}

// takesCtx reports whether a function's only parameter is a *Ctx.
func takesCtx(ft *ast.FuncType) bool {
	ps := ft.Params.List
	if len(ps) != 1 || len(ps[0].Names) > 1 {
		return false
	}
	star, ok := ps[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Ctx"
}

func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "a type"
}
