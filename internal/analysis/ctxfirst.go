package analysis

import (
	"go/ast"
	"strings"
)

// CtxFirst enforces the serving layer's cancellation contract (§2.9).
// The packages that sit on the request path — serve, core, exec —
// thread cancellation through call arguments, never through state:
//
//   - an exported function or method whose name ends in "Ctx" is a
//     context-accepting variant by convention and must take a
//     context.Context as its first parameter;
//   - any other exported function that accepts a context must still
//     put it first (the database/sql convention), so call sites read
//     uniformly;
//   - no struct may hold a context.Context field. A stored context
//     outlives the request that created it and silently pins that
//     request's deadline and values to later work. Long-lived state
//     carries the decomposed form instead — a Done channel and a Cause
//     func, as plan.Ctx does.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "request-path packages take context.Context as the first parameter of exported Ctx variants and never store one in a struct",
	Run:  runCtxFirst,
}

// ctxfirstPkgs are the request-path packages under the contract.
var ctxfirstPkgs = map[string]bool{
	"serve": true,
	"core":  true,
	"exec":  true,
}

func runCtxFirst(p *Pass) {
	if !ctxfirstPkgs[p.Pkg.Name()] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				ctxfirstFunc(p, d)
			case *ast.StructType:
				ctxfirstStruct(p, d)
			}
			return true
		})
	}
}

// ctxfirstFunc checks parameter placement on one exported function.
func ctxfirstFunc(p *Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() {
		return
	}
	// Index of the first context.Context parameter, -1 if none.
	ctxIdx := -1
	idx := 0
	if fn.Type.Params != nil {
		for _, fld := range fn.Type.Params.List {
			names := len(fld.Names)
			if names == 0 {
				names = 1
			}
			if ctxIdx < 0 && isNamed(p.Info.TypeOf(fld.Type), "context", "Context") {
				ctxIdx = idx
			}
			idx += names
		}
	}
	switch {
	case strings.HasSuffix(fn.Name.Name, "Ctx") && ctxIdx != 0:
		p.Reportf(fn.Name.Pos(), "exported %s must take a context.Context as its first parameter", fn.Name.Name)
	case ctxIdx > 0:
		p.Reportf(fn.Name.Pos(), "context.Context parameter of exported %s must come first", fn.Name.Name)
	}
}

// ctxfirstStruct flags stored contexts. ast.Inspect hands us every
// struct literal in the file, so nested and anonymous structs are
// covered too.
func ctxfirstStruct(p *Pass, st *ast.StructType) {
	for _, fld := range st.Fields.List {
		if isNamed(p.Info.TypeOf(fld.Type), "context", "Context") {
			p.Reportf(fld.Pos(), "struct field stores a context.Context; pass contexts through calls and keep Done/Cause in long-lived state")
		}
	}
}
