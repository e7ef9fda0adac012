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
	inspectPackages(t, func(dir string, pos token.Position, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if banned[n.Name] {
				t.Errorf("%s: %s is back", pos, n.Name)
			}
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.Name == "open" && takesCtx(n.Type) {
				t.Errorf("%s: %s has a row-at-a-time open(*Ctx)", pos, recvName(n.Recv))
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && dir == "." &&
				sel.Sel.Name == "Rows" && len(n.Args) == 0 {
				t.Errorf("%s: the executor reads a table's row face", pos)
			}
		}
	})
}

// TestOneFanOut pins that the Exchange is the only operator that fans a
// subtree out over workers, and Scan.keptRanges the only place a scan
// drops partitions: neither the partition-wise operator nor what
// existed only for it — its per-worker partition pin (pwRun, Ctx.pw),
// its plan-time eligibility walk (partitionWise, copartJoins,
// offsetIsPartCol), the interface over the two fan-outs (fanOut and its
// unit method) and the exchange's second partition read path
// (partBoundsFor) — is declared or named again.
func TestOneFanOut(t *testing.T) {
	banned := map[string]bool{"PartitionWise": true, "pwRun": true, "partitionWise": true,
		"copartJoins": true, "offsetIsPartCol": true, "fanOut": true, "partBoundsFor": true}
	inspectPackages(t, func(_ string, pos token.Position, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if banned[n.Name] {
				t.Errorf("%s: %s is back", pos, n.Name)
			}
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.Name == "unit" {
				t.Errorf("%s: %s names a fan-out unit again", pos, recvName(n.Recv))
			}
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Ctx" {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.Name == "pw" {
							t.Errorf("%s: Ctx.pw is back", pos)
						}
					}
				}
			}
		}
	})
}

// inspectPackages walks every node of the non-test files of this
// package and internal/exec, handing visit the directory, the node's
// position and the node.
func inspectPackages(t *testing.T, visit func(dir string, pos token.Position, n ast.Node)) {
	t.Helper()
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
					if n != nil {
						visit(dir, fset.Position(n.Pos()), n)
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
