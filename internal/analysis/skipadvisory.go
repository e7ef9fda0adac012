package analysis

import (
	"go/ast"
	"go/types"
)

// SkipAdvisory enforces the zone-map contract from DESIGN.md §2.7:
// segment skipping is work avoidance, never enforcement. A skip
// predicate proves a conjunct non-TRUE for a whole segment, but the
// conjunct itself must stay in the Filter above the scan — dropping it
// because "the skip handles it" turns a conservative optimization into
// a wrong answer for every segment the proof cannot reach. The
// contract has three mechanical faces:
//
//  1. Scan.Skips may only be assigned the result of zonePreds — the
//     single derivation point. Mutating the skip set after derivation
//     (append, element writes) severs it from the conjuncts it came
//     from.
//  2. A function deriving X.Skips = zonePreds(b, conjs) must also pass
//     the same conjs to sql.And — the Filter construction — so every
//     skip-feeding conjunct stays enforced.
//  3. Scan.Skips may only be read as an argument to bindZonePreds or
//     segScanStats — the advisory consumers. Any other read is a path
//     toward using skips as enforcement.
var SkipAdvisory = &Analyzer{
	Name: "skipadvisory",
	Doc:  "zone-map skips must be derived by zonePreds, re-enforced by the Filter, and consumed only advisorily",
	Run:  runSkipAdvisory,
}

// skipConsumers are the functions allowed to read Scan.Skips.
var skipConsumers = map[string]bool{
	"bindZonePreds": true,
	"segScanStats":  true,
}

// isSkipsField reports whether sel reads/writes the Skips field of a
// Scan node.
func isSkipsField(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Skips" {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	n := namedOf(s.Recv())
	return n != nil && n.Obj().Name() == "Scan"
}

func runSkipAdvisory(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.skipAdvisoryFunc(fd)
		}
	}
}

func (p *Pass) skipAdvisoryFunc(fd *ast.FuncDecl) {
	// conjuncts zonePreds derived skips from in this function, to be
	// matched against sql.And arguments; exempt tracks .Skips selector
	// nodes already accounted for as sanctioned writes or reads.
	type derivation struct {
		conj ast.Expr
		pos  ast.Node
	}
	var derived []derivation
	exempt := map[*ast.SelectorExpr]bool{}
	var andArgs []string

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					// Element writes: sc.Skips[i] = ... mutate the set.
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if s, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok && isSkipsField(p.Info, s) {
							exempt[s] = true
							p.Reportf(lhs.Pos(), "Scan.Skips must not be mutated after derivation; it may only be assigned zonePreds(...)")
						}
					}
					continue
				}
				if !isSkipsField(p.Info, sel) {
					continue
				}
				exempt[sel] = true
				call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr)
				if !ok || calleeName(call) != "zonePreds" {
					p.Reportf(st.Rhs[i].Pos(), "Scan.Skips may only be assigned the result of zonePreds(...); anything else severs skips from their conjuncts")
					continue
				}
				if len(call.Args) >= 2 {
					derived = append(derived, derivation{conj: call.Args[1], pos: call})
				}
			}
		case *ast.CompositeLit:
			if n := namedOf(p.Info.TypeOf(st)); n == nil || n.Obj().Name() != "Scan" {
				return true
			}
			for _, elt := range st.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Skips" {
					continue
				}
				call, ok := ast.Unparen(kv.Value).(*ast.CallExpr)
				if !ok || calleeName(call) != "zonePreds" {
					p.Reportf(kv.Value.Pos(), "Scan.Skips may only be assigned the result of zonePreds(...); anything else severs skips from their conjuncts")
					continue
				}
				if len(call.Args) >= 2 {
					derived = append(derived, derivation{conj: call.Args[1], pos: call})
				}
			}
		case *ast.CallExpr:
			name := calleeName(st)
			if name == "And" {
				for _, a := range st.Args {
					andArgs = append(andArgs, types.ExprString(a))
				}
			}
			if skipConsumers[name] {
				for _, a := range st.Args {
					if s, ok := ast.Unparen(a).(*ast.SelectorExpr); ok && isSkipsField(p.Info, s) {
						exempt[s] = true
					}
				}
			}
		}
		return true
	})

	// Face 2: every derivation's conjunct list must reach sql.And.
	for _, d := range derived {
		want := types.ExprString(d.conj)
		found := false
		for _, a := range andArgs {
			if a == want {
				found = true
				break
			}
		}
		if !found {
			p.Reportf(d.pos.Pos(), "conjuncts %s feed Scan.Skips but are not re-enforced by a Filter (no And(%s...) in this function); zone skipping must stay advisory", want, want)
		}
	}

	// Face 3: remaining .Skips reads are unsanctioned.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || exempt[sel] || !isSkipsField(p.Info, sel) {
			return true
		}
		p.Reportf(sel.Sel.Pos(), "Scan.Skips may only be consumed by bindZonePreds/segScanStats (advisory skip evaluation); reading it elsewhere invites using skips as enforcement")
		return true
	})
}
