package plan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneExecutor pins that the vectorized engine is the only executor:
// no operator has a row-at-a-time open(*Ctx), nothing in the package
// materializes a table's rows (TableSnap.Rows), and neither the switch
// that used to pick the row engine (NoVec) nor the machinery that
// decided or bridged it (staticVec, rowSource) is declared or named
// again, here or in internal/exec. Nor is the per-row expression
// (vscalar) that once ran what the kernels cannot reproduce inside a
// batch: that is not run at all (ErrUnsupported; TestNoRowwiseFallback).
func TestOneExecutor(t *testing.T) {
	banned := map[string]bool{"NoVec": true, "staticVec": true, "rowSource": true, "vscalar": true}
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
				t.Errorf("%s: the executor materializes a table's rows", pos)
			}
		}
	})
}

// TestNoRowwiseFallback pins that the planned executor runs only what
// its kernels compile: nothing in this package's non-test code
// declares or names the row-at-a-time escape hatch it had — the
// per-row expression (vscalar) and its row shape (vframe), the
// compiler's fallback to it (rowwise) and its kind inference
// (exprKind), the callback into internal/exec (Evaluator) and the
// correlation frame (Frame) — and Ctx has no Ev or Parent field. In
// internal/exec, no struct has a planCache field, and the scalar
// evaluator is reachable only from the reference executor: the
// executor type, its constructor and its eval methods are named only
// in reference.go and eval.go.
func TestNoRowwiseFallback(t *testing.T) {
	banned := map[string]bool{"vscalar": true, "vframe": true, "rowwise": true,
		"exprKind": true, "Evaluator": true, "Frame": true}
	evalOnly := map[string]bool{"executor": true, "newExecutor": true, "eval": true, "evalGroup": true}
	evalFiles := map[string]bool{"reference.go": true, "eval.go": true}
	inspectPackages(t, func(dir string, pos token.Position, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			switch {
			case dir == "." && banned[n.Name]:
				t.Errorf("%s: %s is back", pos, n.Name)
			case dir == "../exec" && evalOnly[n.Name] && !evalFiles[filepath.Base(pos.Filename)]:
				t.Errorf("%s: %s is named outside the reference executor", pos, n.Name)
			}
		case *ast.TypeSpec:
			for _, name := range fieldNames(n) {
				switch {
				case dir == "." && n.Name.Name == "Ctx" && (name == "Ev" || name == "Parent"):
					t.Errorf("%s: Ctx.%s is back", pos, name)
				case dir == "../exec" && name == "planCache":
					t.Errorf("%s: %s.planCache is back", pos, n.Name.Name)
				}
			}
		}
	})
}

// TestOneFanOut pins that an aggregate's worker run is the one fan-out:
// a parallel aggregate sizes and runs its workers from its own fields
// (Aggregate.start, exchangeRun.run). Neither the plan node that once
// stood for it (Exchange) nor the registry its workers once filled
// lazily to build each join's table once (sharedState, buildEntry, the
// Ctx's shared field) is declared or named again; nor is the
// partition-wise operator or what existed only for it — its per-worker
// partition pin (pwRun, Ctx.pw), its plan-time eligibility walk
// (partitionWise, copartJoins, offsetIsPartCol), the interface over the
// two fan-outs (fanOut and its unit method) and the second partition
// read path (partBoundsFor).
func TestOneFanOut(t *testing.T) {
	banned := map[string]bool{"PartitionWise": true, "pwRun": true, "partitionWise": true,
		"copartJoins": true, "offsetIsPartCol": true, "fanOut": true, "partBoundsFor": true,
		"Exchange": true, "sharedState": true, "buildEntry": true}
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
						if name.Name == "pw" || name.Name == "shared" {
							t.Errorf("%s: Ctx.%s is back", pos, name.Name)
						}
					}
				}
			}
		}
	})
}

// TestNoBatchOutlivesItsPull pins the whole ownership rule of the
// vectorized executor — a returned batch is lent, and nobody keeps it —
// by what went with the last batches kept: the exchange's kept morsels
// and the join build's kept input, both through keepBatches; the copy
// it took (a keep method on vbatch); and the mark on the columns that
// copy had to clone (vcol.lent). None is declared or named again, here
// or in internal/exec: a join build and a Sort push a batch's rows into
// builders, and only an aggregate folding in its workers fans out.
func TestNoBatchOutlivesItsPull(t *testing.T) {
	inspectPackages(t, func(_ string, pos token.Position, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "keepBatches" {
				t.Errorf("%s: keepBatches is back", pos)
			}
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.Name == "keep" && recvName(n.Recv) == "vbatch" {
				t.Errorf("%s: vbatch.keep is back", pos)
			}
		case *ast.TypeSpec:
			if n.Name.Name == "vcol" && slices.Contains(fieldNames(n), "lent") {
				t.Errorf("%s: vcol.lent is back", pos)
			}
		}
	})
}

// TestOneDialect pins that the planned executor compiles the SQL
// iql.ToSQL writes and no more: neither the kernels for what it never
// writes — AND/OR inside one expression (vlogic), arithmetic (varith),
// unary minus over a column (vneg), IS NULL (visnull), BETWEEN other
// than a number between constants (vbetween) — nor their helpers
// (cmpOpInt, cmpOpFloat, boolRank, asFloats, floatAt, orNulls), nor the
// cartesian product (CrossJoin and its MaxProduct guard, now the
// reference executor's maxProduct), nor CompileWith, which nothing
// called, is declared or named again, here or in internal/exec. The
// statements themselves fail with ErrUnsupported (exec's
// TestOneDialect).
func TestOneDialect(t *testing.T) {
	banned := map[string]bool{"vlogic": true, "varith": true, "vneg": true, "visnull": true,
		"vbetween": true, "cmpOpInt": true, "cmpOpFloat": true, "boolRank": true, "asFloats": true,
		"floatAt": true, "orNulls": true, "CrossJoin": true, "MaxProduct": true, "CompileWith": true}
	inspectPackages(t, func(_ string, pos token.Position, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
			t.Errorf("%s: %s is back", pos, id.Name)
		}
	})
}

// TestOneKeyTable pins that the executor decides key equality in one
// place: a hash join's build, GROUP BY, DISTINCT and a DISTINCT
// aggregate all hash their keys (hashKeys), chain them by bucket and
// confirm a match in (*keyTable).find, the only caller of eqVals. No
// non-test map in the package is keyed by a hash (uint64), nothing
// calls Value.Key, and the group index and DISTINCT-aggregate key the
// keySet replaced (groupIdx, distinctKey) are declared or named again
// nowhere.
func TestOneKeyTable(t *testing.T) {
	banned := map[string]bool{"groupIdx": true, "distinctKey": true}
	calls := 0
	inspectPackages(t, func(dir string, pos token.Position, n ast.Node) {
		if dir != "." {
			return
		}
		switch n := n.(type) {
		case *ast.Ident:
			if banned[n.Name] {
				t.Errorf("%s: %s is back", pos, n.Name)
			}
		case *ast.MapType:
			if id, ok := n.Key.(*ast.Ident); ok && id.Name == "uint64" {
				t.Errorf("%s: a map keyed by a hash is back", pos)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Key" && len(n.Args) == 0 {
				t.Errorf("%s: keys a value by Value.Key", pos)
			}
		case *ast.FuncDecl:
			name := n.Name.Name
			if n.Recv != nil {
				name = recvName(n.Recv) + "." + name
			}
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "eqVals" {
						calls++
						if name != "keyTable.find" {
							t.Errorf("%s: %s compares keys with eqVals outside keyTable.find", pos, name)
						}
					}
				}
				return true
			})
		}
	})
	if calls == 0 {
		t.Error("keyTable.find no longer calls eqVals; this test has gone stale")
	}
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
// (plan.Build, plan.Optimize) is gone with them. A scan skips segments
// by the compiled kernels of the Filter above it alone: the second
// reading of its conjuncts into zone-map predicates (ZonePred, its
// binder and Scan.Skips) is gone too.
func TestOneAccessPath(t *testing.T) {
	ddl := map[string]bool{"BuildIndex": true, "BuildOrderedIndex": true, "DropIndex": true,
		"DropAllIndexes": true, "BuildPrimaryIndexes": true}
	banned := map[string]bool{"IndexScan": true, "HasIndex": true, "LookupIndex": true,
		"HasOrderedIndex": true, "LookupRange": true, "mergeOrdered": true, "withOrderedIndex": true,
		"publishIndex": true, "extendStats": true, "indexPrune": true, "pathPlan": true,
		"planPath": true, "rangeBounds": true, "rangeSelectivity": true, "eqColConst": true,
		"cmpColConst": true, "bindChecks": true, "rebindOK": true, "optimizeChecked": true,
		"sameDecision": true, "indexDeps": true, "joinNodes": true, "EqColLiteral": true,
		"ZonePred": true, "zoneOp": true, "zonePreds": true, "zoneConst": true, "zoneColIdx": true,
		"boundZone": true, "bindZonePreds": true, "zoneComparable": true, "skipSegment": true,
		"segScanStats": true}
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
			if !isTest && dir == "internal/plan" && n.Name.Name == "Scan" && slices.Contains(fieldNames(n), "Skips") {
				t.Errorf("%s: Scan.Skips is back: a segment skip is the Filter's own kernels' verdict", pos)
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

// TestNoColumnStatistics pins that plans come from the schema and row
// counts: joinSelectivity bounds a join column's distinct values by
// table lengths and declared keys, so nothing decodes a segment to
// count them. The row-scanning statistics — ColStats, computeStats,
// the per-version cache (dataCaches, statsMu, tableData.caches) and
// TableSnap.Stats — are declared or named again in no Go file of the
// module, tests and benchmark/ included.
func TestNoColumnStatistics(t *testing.T) {
	banned := map[string]bool{"ColStats": true, "computeStats": true, "dataCaches": true, "statsMu": true}
	inspectModule(t, func(pos token.Position, dir string, _ bool, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if banned[n.Name] {
				t.Errorf("%s: %s is back", pos, n.Name)
			}
		case *ast.FuncDecl:
			if dir == "internal/store" && n.Recv != nil && recvName(n.Recv) == "TableSnap" && n.Name.Name == "Stats" {
				t.Errorf("%s: TableSnap.Stats is back", pos)
			}
		case *ast.TypeSpec:
			if dir == "internal/store" && n.Name.Name == "tableData" {
				for _, name := range fieldNames(n) {
					if name == "caches" {
						t.Errorf("%s: tableData.caches is back", pos)
					}
				}
			}
		}
	})
}

// TestOneTreeWalk pins that internal/sql alone knows which children each
// AST node has: inside it only the printer (printer.expr), the
// read-only visitor (Walk) and the copying rewriter (rewriter.expr)
// type-switch on BetweenExpr, the stand-in for every node with
// operands; outside it only the switches that give nodes their
// meaning do — the reference evaluator (executor.eval) and the vector
// compiler (vcompiler.compile), whose kernels also decide zone-map
// skips. A new node kind is taught to those five. None of the
// hand-rolled walks the three replaced, nor sql.Shape and sql.ShapeKey
// (ShapeInto is the form callers use), is
// declared or named again in a non-test file of the module.
func TestOneTreeWalk(t *testing.T) {
	allowed := map[string]bool{
		"internal/sql printer.expr": true, "internal/sql Walk": true, "internal/sql rewriter.expr": true,
		"internal/exec executor.eval": true, "internal/plan vcompiler.compile": true,
	}
	banned := map[string]bool{"collectStmtTables": true, "collectExprTables": true, "parameterizer": true,
		"shapeWriter": true, "WalkExprs": true, "containsSubquery": true, "walkRefs": true,
		"substAggs": true, "walkE": true}
	seen := map[string]bool{}
	inspectModule(t, func(pos token.Position, dir string, isTest bool, n ast.Node) {
		if isTest {
			return
		}
		switch n := n.(type) {
		case *ast.Ident:
			if banned[n.Name] {
				t.Errorf("%s: %s is back", pos, n.Name)
			}
		case *ast.File:
			for _, decl := range n.Decls {
				name := "a package-level declaration"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					name = fd.Name.Name
					if fd.Recv != nil {
						name = recvName(fd.Recv) + "." + name
					}
					if dir == "internal/sql" && (name == "Shape" || name == "ShapeKey") {
						t.Errorf("%s: sql.%s is back", pos.Filename, name)
					}
				}
				ast.Inspect(decl, func(m ast.Node) bool {
					if ts, ok := m.(*ast.TypeSwitchStmt); ok && switchesOnBetween(ts) {
						seen[dir+" "+name] = true
						if !allowed[dir+" "+name] {
							t.Errorf("%s: %s type-switches on BetweenExpr", pos.Filename, name)
						}
					}
					return true
				})
			}
		}
	})
	for name := range allowed {
		if !seen[name] {
			t.Errorf("%s no longer type-switches on BetweenExpr; this test has gone stale", name)
		}
	}
}

// switchesOnBetween reports whether a type switch has a case for
// *BetweenExpr, qualified or not.
func switchesOnBetween(ts *ast.TypeSwitchStmt) bool {
	for _, stmt := range ts.Body.List {
		for _, e := range stmt.(*ast.CaseClause).List {
			star, ok := e.(*ast.StarExpr)
			if !ok {
				continue
			}
			switch x := star.X.(type) {
			case *ast.Ident:
				if x.Name == "BetweenExpr" {
					return true
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "BetweenExpr" {
					return true
				}
			}
		}
	}
	return false
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
