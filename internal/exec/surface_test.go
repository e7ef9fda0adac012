package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurface pins the package's entry points so the surface
// does not grow back one flag at a time: one way to compile, one to
// run (options in RunOpts), one convenience Query, the prepared pair,
// the reference executor and the formatter. A new way to run a plan is
// a RunOpts field; anything else that belongs here changes this list
// deliberately. RunBoundCountedAtCtx leaves it when benchmark/ stops
// compiling against the name.
func TestExportedSurface(t *testing.T) {
	wantFuncs := []string{
		"Compile", "FormatResult", "PrepareTemplateAt", "Query",
		"ReferenceQueryAt", "Run", "RunBoundCountedAtCtx",
	}
	wantMethods := []string{"BindPinned"}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var funcs, methods []string
	for _, f := range pkgs["exec"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == "PreparedQuery" {
				methods = append(methods, fn.Name.Name)
			}
		}
	}
	slices.Sort(funcs)
	slices.Sort(methods)
	if !slices.Equal(funcs, wantFuncs) {
		t.Errorf("exported funcs = %v (%d), want %v", funcs, len(funcs), wantFuncs)
	}
	if !slices.Equal(methods, wantMethods) {
		t.Errorf("PreparedQuery methods = %v (%d), want %v", methods, len(methods), wantMethods)
	}
}
