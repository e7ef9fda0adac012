package plan

import (
	"repro/internal/sql"
	"repro/internal/store"
)

// This file derives and evaluates zone-map skip predicates. A full
// scan under pushed conjuncts gets a set of ZonePreds — conservative
// per-segment tests over the segment layout's min/max/null-count zone
// maps. A segment is skipped only when a predicate is provably
// non-TRUE for every row in it (three-valued logic: NULL rejects), and
// every conjunct a skip predicate derives from stays in the Filter
// above the scan, so a skip decision is an optimization, never the
// enforcement.
//
// Predicates carry parameter slots rather than baked values where the
// conjunct did: the skip set is re-resolved against Ctx.Params at
// every vopen, so one prepared template serves every binding with the
// skips its constants deserve.

// zoneOp is the comparison shape of a skip predicate.
type zoneOp uint8

const (
	zoneEq zoneOp = iota
	zoneNe
	zoneLt
	zoneLe
	zoneGt
	zoneGe
	zoneBetween
	zoneIn
)

// ZonePred is one segment-skip predicate of a Scan: column CI (a meta
// column index, the key of segment zone maps) compared against
// constants that are literal values or parameter slots (Slot >= 0
// overrides V at bind time). Between uses V/Slot and V2/Slot2 as the
// bounds; In carries parallel List/Slots.
type ZonePred struct {
	Ci          int
	Op          zoneOp
	V, V2       store.Value
	Slot, Slot2 int
	List        []store.Value
	Slots       []int
}

// zoneConst resolves a conjunct operand for skip derivation: literals
// bake their value, parameters record their slot for bind-time
// resolution. Anything else refuses (no skip from that conjunct).
func zoneConst(e sql.Expr) (v store.Value, slot int, ok bool) {
	switch n := e.(type) {
	case sql.Literal:
		return n.Val, -1, true
	case sql.Param:
		if n.Idx >= 0 {
			return store.Value{}, n.Idx, true
		}
	}
	return store.Value{}, -1, false
}

// zoneColIdx maps a conjunct's column reference onto the binding's
// meta column index, or -1 when the reference addresses another
// binding.
func zoneColIdx(b Binding, cr sql.ColumnRef) int {
	if cr.Table != "" && cr.Table != b.Name {
		return -1
	}
	return indexOfColumn(b.Meta, cr.Column)
}

// zonePreds derives the skip set of a full scan from its pushed
// conjuncts: comparisons against constants, non-negated BETWEEN, and
// non-negated IN over constant lists. Conjuncts that do not fit derive
// nothing — they simply cannot skip.
func zonePreds(b Binding, conjs []sql.Expr) []ZonePred {
	var out []ZonePred
	for _, c := range conjs {
		switch e := c.(type) {
		case *sql.BinaryExpr:
			if !e.Op.IsComparison() {
				continue
			}
			op := e.Op
			var cr sql.ColumnRef
			var v store.Value
			var slot int
			if cl, ok := e.L.(sql.ColumnRef); ok {
				cv, s, ok := zoneConst(e.R)
				if !ok {
					continue
				}
				cr, v, slot = cl, cv, s
			} else if cl, ok := e.R.(sql.ColumnRef); ok {
				cv, s, ok := zoneConst(e.L)
				if !ok {
					continue
				}
				cr, v, slot = cl, cv, s
				op = flipCmp(op) // constant OP col  =>  col OP' constant
			} else {
				continue
			}
			ci := zoneColIdx(b, cr)
			if ci < 0 {
				continue
			}
			var zop zoneOp
			switch op {
			case sql.OpEq:
				zop = zoneEq
			case sql.OpNe:
				zop = zoneNe
			case sql.OpLt:
				zop = zoneLt
			case sql.OpLe:
				zop = zoneLe
			case sql.OpGt:
				zop = zoneGt
			case sql.OpGe:
				zop = zoneGe
			default:
				continue
			}
			out = append(out, ZonePred{Ci: ci, Op: zop, V: v, Slot: slot, Slot2: -1})
		case *sql.BetweenExpr:
			if e.Negated {
				continue
			}
			cr, ok := e.X.(sql.ColumnRef)
			if !ok {
				continue
			}
			ci := zoneColIdx(b, cr)
			if ci < 0 {
				continue
			}
			loV, loS, lok := zoneConst(e.Lo)
			hiV, hiS, hok := zoneConst(e.Hi)
			if !lok || !hok {
				continue
			}
			out = append(out, ZonePred{Ci: ci, Op: zoneBetween, V: loV, Slot: loS, V2: hiV, Slot2: hiS})
		case *sql.InExpr:
			if e.Negated || e.Sub != nil {
				continue
			}
			cr, ok := e.X.(sql.ColumnRef)
			if !ok {
				continue
			}
			ci := zoneColIdx(b, cr)
			if ci < 0 {
				continue
			}
			zp := ZonePred{Ci: ci, Op: zoneIn, Slot: -1, Slot2: -1}
			usable := true
			for _, le := range e.List {
				v, s, ok := zoneConst(le)
				if !ok {
					usable = false
					break
				}
				zp.List = append(zp.List, v)
				zp.Slots = append(zp.Slots, s)
			}
			if !usable || len(zp.List) == 0 {
				continue
			}
			out = append(out, zp)
		}
	}
	return out
}

func flipCmp(op sql.BinOp) sql.BinOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op // Eq/Ne are symmetric
}

// boundZone is a ZonePred with every constant resolved for one run.
type boundZone struct {
	ci    int
	op    zoneOp
	v, v2 store.Value
	list  []store.Value
}

// bindZonePreds resolves a skip set against the run's parameter
// vector. skipAll reports a predicate bound to NULL — non-TRUE on
// every row under 3VL, so the scan produces nothing at all. A slot the
// vector does not cover drops its predicate (the filter above still
// enforces the conjunct, and the plan will fail loudly elsewhere if
// the parameter was genuinely required).
func bindZonePreds(skips []ZonePred, params []store.Value) (preds []boundZone, skipAll bool) {
	at := func(v store.Value, slot int) (store.Value, bool) {
		if slot < 0 {
			return v, true
		}
		if slot < len(params) {
			return params[slot], true
		}
		return store.Value{}, false
	}
	for _, zp := range skips {
		bz := boundZone{ci: zp.Ci, op: zp.Op}
		var ok bool
		switch zp.Op {
		case zoneBetween:
			if bz.v, ok = at(zp.V, zp.Slot); !ok {
				continue
			}
			if bz.v2, ok = at(zp.V2, zp.Slot2); !ok {
				continue
			}
			if bz.v.IsNull() || bz.v2.IsNull() {
				return nil, true
			}
		case zoneIn:
			usable := true
			for i, v := range zp.List {
				rv, ok := at(v, zp.Slots[i])
				if !ok {
					usable = false
					break
				}
				if rv.IsNull() {
					continue // a NULL element never makes the IN TRUE
				}
				bz.list = append(bz.list, rv)
			}
			if !usable {
				continue
			}
			if len(bz.list) == 0 {
				return nil, true // IN (NULL, ...) is NULL for every row
			}
		default:
			if bz.v, ok = at(zp.V, zp.Slot); !ok {
				continue
			}
			if bz.v.IsNull() {
				return nil, true
			}
		}
		preds = append(preds, bz)
	}
	return preds, false
}

// zoneComparable gates skip decisions on kinds whose store.Compare
// order matches predicate semantics: both numeric, or identical kinds.
// Cross-kind comparisons (which Compare orders by kind rank, not by
// value) never skip.
func zoneComparable(a, b store.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	return a.Kind() == b.Kind()
}

// skips reports whether the zone map of the predicate's column proves
// the predicate non-TRUE for every row of the segment. An all-NULL
// column skips under any shape here (every form is a comparison, NULL
// in → NULL out → reject); an unknown range (no non-NULL values
// recorded, or a NaN-poisoned float segment) never skips.
func (p *boundZone) skips(seg *store.Segment) bool {
	// Zone maps sit on the segment beside its columns: deciding not to
	// read a segment reads none of them.
	z := seg.Zones[p.ci]
	if z.AllNull() {
		return true
	}
	// A NULL endpoint means no usable range was recorded: never skip.
	mn, mx := z.Min, z.Max
	if mn.IsNull() || mx.IsNull() {
		return false
	}
	cmp := func(a, b store.Value) (int, bool) {
		if !zoneComparable(a, b) {
			return 0, false
		}
		return store.Compare(a, b), true
	}
	switch p.op {
	case zoneEq:
		if c, ok := cmp(p.v, mn); ok && c < 0 {
			return true
		}
		if c, ok := cmp(p.v, mx); ok && c > 0 {
			return true
		}
	case zoneNe:
		// Only a constant segment equal to the probe is all-FALSE.
		if c, ok := cmp(mn, mx); ok && c == 0 {
			if c, ok := cmp(p.v, mn); ok && c == 0 {
				return true
			}
		}
	case zoneLt:
		if c, ok := cmp(mn, p.v); ok && c >= 0 {
			return true
		}
	case zoneLe:
		if c, ok := cmp(mn, p.v); ok && c > 0 {
			return true
		}
	case zoneGt:
		if c, ok := cmp(mx, p.v); ok && c <= 0 {
			return true
		}
	case zoneGe:
		if c, ok := cmp(mx, p.v); ok && c < 0 {
			return true
		}
	case zoneBetween:
		if c, ok := cmp(mx, p.v); ok && c < 0 {
			return true
		}
		if c, ok := cmp(mn, p.v2); ok && c > 0 {
			return true
		}
	case zoneIn:
		for _, v := range p.list {
			cLo, okLo := cmp(v, mn)
			cHi, okHi := cmp(v, mx)
			if !okLo || !okHi || (cLo >= 0 && cHi <= 0) {
				return false // element inside (or not provably outside) the range
			}
		}
		return true
	}
	return false
}

// skipSegment reports whether any bound predicate skips the segment.
func skipSegment(seg *store.Segment, preds []boundZone) bool {
	for i := range preds {
		if preds[i].skips(seg) {
			return true
		}
	}
	return false
}

// segScanStats evaluates a scan's skip set against the snapshot at
// compile time — the `segments=N skipped=K` numbers Explain reports.
// Runtime executions re-derive skips from their own parameters (see
// Scan.vopen); these are the numbers for the values the plan was
// compiled or bound with.
func segScanStats(sn *store.Snapshot, b Binding, skips []ZonePred, params []store.Value) (n, skipped int) {
	tab := sn.Table(b.Meta.Name)
	if tab == nil {
		return 0, 0
	}
	ss := tab.Segments()
	n = len(ss.Segs)
	preds, skipAll := bindZonePreds(skips, params)
	if skipAll {
		return n, n
	}
	for _, seg := range ss.Segs {
		if skipSegment(seg, preds) {
			skipped++
		}
	}
	return n, skipped
}
