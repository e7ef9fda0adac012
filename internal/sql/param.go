package sql

import "repro/internal/store"

// Parameterize splits a statement into its reusable shape and its
// constants: it returns a deep copy of stmt in which every non-NULL
// literal — including literals inside nested subqueries — is replaced
// by a Param slot, plus the vector of lifted values in slot order, the
// order they print in. Questions that differ only in their constants
// ("sales in march" / "sales in april") therefore normalize to the
// same template, which is what lets the engine cache one compiled plan
// across all of them.
//
// NULL literals stay inline: their three-valued-logic constant folds
// (a comparison against NULL rejects every row) are decisions the
// planner makes from the literal itself, so NULL-ness is part of the
// shape, not a binding.
//
// The original statement is never mutated, and the copy shares no
// expression nodes with it.
func Parameterize(stmt *SelectStmt) (*SelectStmt, []store.Value) {
	var vals []store.Value
	r := rewriter{f: func(e Expr) (Expr, bool) {
		l, ok := e.(Literal)
		if !ok || l.Val.IsNull() {
			return nil, false
		}
		vals = append(vals, l.Val)
		return Param{Idx: len(vals) - 1, Kind: l.Val.Kind()}, true
	}}
	return r.stmt(stmt), vals
}

func kindLetter(k store.Kind) byte {
	switch k {
	case store.KindInt:
		return 'i'
	case store.KindFloat:
		return 'f'
	case store.KindText:
		return 't'
	case store.KindBool:
		return 'b'
	}
	return 'n'
}

// ShapeInto computes, in one pass and without building the template
// tree, the shape key of stmt, appended into buf, and its lifted
// constants in Parameterize's slot order, appended into spare. The key
// is the canonical SQL of the template Parameterize would build, '|',
// and one letter per constant's kind: two statements share it exactly
// when a plan compiled for one is structurally valid for the other —
// same template, same parameter kinds — which makes it the plan-cache
// key. This is the plan-cache hit path — called on every ask with
// pooled scratch, so it allocates nothing once the scratch has grown
// (the returned slices alias the scratch backing arrays; copy before
// retaining). The agreement with Parameterize is pinned by
// TestShapeAgreesWithParameterize.
func ShapeInto(stmt *SelectStmt, buf []byte, spare []store.Value) (key []byte, params []store.Value) {
	p := printer{buf: buf, lift: true, params: spare}
	p.stmt(stmt)
	p.str("|")
	for _, v := range p.params {
		p.buf = append(p.buf, kindLetter(v.Kind()))
	}
	return p.buf, p.params
}

// NumParams returns how many parameter slots the (sub)statement tree
// references: one past the highest slot index found.
func NumParams(stmt *SelectStmt) int {
	n := 0
	var count func(*SelectStmt)
	count = func(s *SelectStmt) {
		WalkStmt(s, func(e Expr) bool {
			if p, ok := e.(Param); ok {
				n = max(n, p.Idx+1)
			}
			if sub := Nested(e); sub != nil {
				count(sub)
			}
			return true
		})
	}
	if stmt != nil {
		count(stmt)
	}
	return n
}
