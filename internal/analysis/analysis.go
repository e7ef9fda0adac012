// Package analysis is nlivet: four analyzers that mechanically enforce
// the engine's concurrency and columnar invariants at typecheck speed,
// before any race has to manifest. The contracts they guard are stated
// in DESIGN.md and were previously enforced only by tests:
//
//   - batchretain: vectorized operators must not retain zero-copy
//     batch or segment-window slices in long-lived state without an
//     explicit copy (§2.4, §2.7).
//   - atomicfield: a field accessed via sync/atomic anywhere must be
//     accessed atomically everywhere, and mutex- or atomic-holding
//     structs must not be copied by value.
//   - detgen: dataset generators and benchmark verification data must
//     stay deterministic — no wall clock, no global rand state.
//   - ctxfirst: the request-path packages (serve, core, exec) take
//     context.Context as the first parameter of exported Ctx variants
//     and never store a context in a struct — long-lived state carries
//     Done/Cause instead (§2.9).
//
// The suite is modeled on golang.org/x/tools/go/analysis but is built
// on the standard library alone (go/ast + go/types + a source
// importer), so it runs in environments where x/tools is unavailable;
// cmd/nlivet is the multichecker. A finding is suppressed by a
// directive comment on, or on the line before, the flagged line:
//
//	//nlivet:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression without one is itself a
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Suite returns the nlivet analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{BatchRetain, AtomicField, DetGen, CtxFirst}
}

// Run executes the analyzers over one loaded package and returns the
// surviving findings: suppression directives are applied, malformed
// directives are findings of their own, and the result is sorted by
// position.
func Run(pkg *Package, fset *token.FileSet, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		a.Run(pass)
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	var igns []ignore
	for _, f := range pkg.Files {
		igns = append(igns, collectIgnores(fset, f, known, &out)...)
	}
	for _, d := range raw {
		if !suppressed(d, igns) {
			out = append(out, d)
		}
	}
	sortDiags(out)
	return out
}

// ignore is one parsed suppression directive.
type ignore struct {
	analyzer string
	reason   string
	line     int
	file     string
}

// collectIgnores parses the //nlivet:ignore directives of a file.
// Malformed directives (missing analyzer, unknown analyzer, empty
// reason) are reported as findings under the pseudo-analyzer "nlivet".
func collectIgnores(fset *token.FileSet, f *ast.File, known map[string]bool, diags *[]Diagnostic) []ignore {
	var out []ignore
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//nlivet:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) == 0 {
				*diags = append(*diags, Diagnostic{
					Analyzer: "nlivet", Pos: pos,
					Message: "nlivet:ignore needs an analyzer name and a reason",
				})
				continue
			}
			if !known[fields[0]] {
				*diags = append(*diags, Diagnostic{
					Analyzer: "nlivet", Pos: pos,
					Message: fmt.Sprintf("nlivet:ignore names unknown analyzer %q", fields[0]),
				})
				continue
			}
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Analyzer: "nlivet", Pos: pos,
					Message: fmt.Sprintf("nlivet:ignore %s needs a non-empty reason", fields[0]),
				})
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0]))
			out = append(out, ignore{analyzer: fields[0], reason: reason, line: pos.Line, file: pos.Filename})
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive on its line
// or the line above.
func suppressed(d Diagnostic, igns []ignore) bool {
	for _, ig := range igns {
		if ig.analyzer != d.Analyzer || ig.file != d.Pos.Filename {
			continue
		}
		if ig.line == d.Pos.Line || ig.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// sortDiags orders findings by file, line, column, analyzer.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared type helpers ----

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named
// type pkgName.typeName, matching the package by name so analyzer
// fixtures can model engine types under testdata import paths.
func isNamed(t types.Type, pkgName, typeName string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Name() != typeName {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// funcPkgPath returns the defining package path and name of the
// function a call expression resolves to, or ok=false for calls that
// are not package-level function references (methods, conversions,
// builtins, function-typed values).
func funcPkgPath(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return "", "", false // method or field call, not a package func
		}
		id = fun.Sel
	default:
		return "", "", false
	}
	obj, okObj := info.Uses[id].(*types.Func)
	if !okObj || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}
