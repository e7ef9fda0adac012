package plan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
// subtree out over workers: neither the partition-wise operator nor what
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

// TestOneAccessPath pins that a scan is the only way to read a table:
// no secondary index, no index scan, and none of what existed only for
// them — index maintenance on publish, the index-fed distinct counts,
// the planner's access-path choice and range bounds, the template's
// value-sensitive re-checks, the reference executor's index prune — is
// declared or named again in any non-test file of the module,
// benchmark/ included. No Go file at all, tests included, calls index
// DDL, and store.Table has no read accessors of its own (a read pins a
// TableSnap first), nor tableData an index field. The naive lowering
// (plan.Build, plan.Optimize) is gone with them.
func TestOneAccessPath(t *testing.T) {
	ddl := map[string]bool{"BuildIndex": true, "BuildOrderedIndex": true, "DropIndex": true,
		"DropAllIndexes": true, "BuildPrimaryIndexes": true}
	banned := map[string]bool{"IndexScan": true, "HasIndex": true, "LookupIndex": true,
		"HasOrderedIndex": true, "LookupRange": true, "mergeOrdered": true, "withOrderedIndex": true,
		"publishIndex": true, "extendStats": true, "indexPrune": true, "pathPlan": true,
		"planPath": true, "rangeBounds": true, "rangeSelectivity": true, "eqColConst": true,
		"cmpColConst": true, "bindChecks": true, "rebindOK": true, "optimizeChecked": true,
		"sameDecision": true, "indexDeps": true, "joinNodes": true, "EqColLiteral": true}
	for name := range ddl {
		banned[name] = true
	}
	tableReads := map[string]bool{"Len": true, "Rows": true, "Row": true, "Stats": true, "Segments": true}
	inspectModule(t, func(pos token.Position, dir string, isTest bool, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && ddl[sel.Sel.Name] {
				t.Errorf("%s: calls index DDL (%s)", pos, sel.Sel.Name)
			}
		case *ast.Ident:
			if !isTest && banned[n.Name] {
				t.Errorf("%s: %s is back", pos, n.Name)
			}
		case *ast.FuncDecl:
			switch {
			case isTest:
			case dir == "internal/store" && n.Recv != nil && recvName(n.Recv) == "Table" && tableReads[n.Name.Name]:
				t.Errorf("%s: store.Table.%s reads without a pinned TableSnap", pos, n.Name.Name)
			case dir == "internal/plan" && n.Recv == nil && (n.Name.Name == "Build" || n.Name.Name == "Optimize"):
				t.Errorf("%s: the naive lowering plan.%s is back", pos, n.Name.Name)
			}
		case *ast.TypeSpec:
			if !isTest && dir == "internal/store" && n.Name.Name == "tableData" {
				for _, name := range fieldNames(n) {
					if name == "hash" || name == "ord" {
						t.Errorf("%s: tableData.%s is back", pos, name)
					}
				}
			}
		}
	})
}

// TestOneTableStream pins that a table is one stream: one writer lock
// and one published version, so a BulkInsert batch is atomic to every
// reader. Partitioned tables — their schemes and routing, the
// per-partition MVCC chains, locks and merged views, bind-time
// partition pruning and its counters, the engine option, server flag
// and benchmark experiment that turned them on — are declared or named
// again in no Go file of the module, tests and benchmark/ included.
// Two names survive as the shim the frozen benchmark replay compiles
// against: store.PartCounters, declared in the store and named only by
// exec.RunBoundCountedAtCtx and benchmark/, and the replay's own
// partC field.
func TestOneTableStream(t *testing.T) {
	banned := map[string]bool{
		// internal/store
		"PartKind": true, "PartNone": true, "PartHash": true, "PartRange": true,
		"PartScheme": true, "HashPartition": true, "RangePartition": true, "Partition": true,
		"PartitionTable": true, "routeKey": true, "partLayout": true, "partSet": true,
		"newPartSet": true, "mergedData": true, "mergedRows": true, "mergedStats": true,
		"mergedSegments": true, "partSegments": true, "lockAll": true, "unlockAll": true,
		"publishPart": true, "NumParts": true, "PartStart": true, "data0": true,
		// internal/plan
		"keptRanges": true, "partKeep": true, "routeCandidates": true, "partPruned": true,
		"partScanStats": true, "chainViters": true, "PartN": true, "PartPruned": true,
		"PartC": true,
		// core, serve, cmd, internal/bench
		"Partitions": true, "partitionTables": true, "PartitionStats": true,
		"partStatsJSON": true, "MeasurePartitionPrune": true, "MeasureParallelLoad": true,
		"PartPrune": true, "ParallelLoad": true, "expF13": true, "f13Rows": true,
	}
	shim := map[string]bool{"internal/store": true, "internal/exec": true}
	inspectModule(t, func(pos token.Position, dir string, _ bool, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			bench := dir == "benchmark" || strings.HasPrefix(dir, "benchmark/")
			switch {
			case banned[n.Name]:
				t.Errorf("%s: %s is back", pos, n.Name)
			case n.Name == "PartCounters" && !bench && !shim[dir]:
				t.Errorf("%s: the PartCounters shim is named outside the benchmark replay's path", pos)
			case n.Name == "partC" && !bench:
				t.Errorf("%s: partC is back", pos)
			}
		case *ast.FuncDecl:
			if dir == "internal/store" && n.Recv != nil && recvName(n.Recv) == "TableSnap" &&
				(n.Name.Name == "Scheme" || n.Name.Name == "Part") {
				t.Errorf("%s: TableSnap.%s is back", pos, n.Name.Name)
			}
		case *ast.TypeSpec:
			if dir != "internal/store" || (n.Name.Name != "Table" && n.Name.Name != "TableSnap") {
				return
			}
			for _, name := range fieldNames(n) {
				if name == "pset" || name == "pubMu" || name == "ticket" || name == "ps" {
					t.Errorf("%s: %s.%s is back", pos, n.Name.Name, name)
				}
			}
		}
	})
}

// inspectModule walks every node of every Go file of the module,
// benchmark/ included, skipping testdata and dot directories. visit
// gets the node's position, its file's directory relative to the
// module root and whether the file is a test.
func inspectModule(t *testing.T, visit func(pos token.Position, dir string, isTest bool, n ast.Node)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		rel, err := filepath.Rel("../..", path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				visit(fset.Position(n.Pos()), dir, isTest, n)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fieldNames lists the field names of a struct type declaration, or
// nothing for any other type.
func fieldNames(ts *ast.TypeSpec) []string {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var names []string
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			names = append(names, name.Name)
		}
	}
	return names
}
