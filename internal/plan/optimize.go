package plan

import (
	"sort"

	"repro/internal/sql"
	"repro/internal/store"
)

// Compile lowers stmt directly into an optimized plan — the path
// exec.Query takes. It is equivalent to Build followed by Optimize but
// skips constructing the naive tree. Planning reads the pinned
// snapshot (row counts, statistics, index availability), so a plan
// compiled and run against the same Snapshot is internally consistent
// even while writers publish new versions.
func Compile(sn *store.Snapshot, stmt *sql.SelectStmt) (*Plan, error) {
	return optimizeStmt(sn, stmt, nil)
}

// CompileWith compiles a parameterized statement (sql.Param slots in
// place of lifted literals) against the values it is bound to. The
// optimizer plans parameter-carrying conjuncts exactly as it would
// their literal forms — index probes, range bounds, selectivity
// estimates all resolve through params — but emits parameter *slots*
// into the plan's scans, so the compiled tree stays valid for any
// later binding of the same shape (see Template).
func CompileWith(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value) (*Plan, error) {
	return optimizeStmt(sn, stmt, params)
}

// Optimize rewrites a naive plan using table statistics from the
// store: WHERE conjuncts are pushed down to the scans they constrain
// (or turned into index equality/range scans), scans are pruned to the
// columns the query touches, and joins are reordered greedily so the
// cheapest, most selective inputs join first. The rewrite never
// changes results: every conjunct is either pushed, consumed by a hash
// join, or kept in a residual filter above the joins, and three-valued
// logic is preserved because a top-level AND accepts a row only when
// every conjunct is exactly TRUE.
func Optimize(sn *store.Snapshot, p *Plan) (*Plan, error) {
	return optimizeStmt(sn, p.Stmt, nil)
}

func optimizeStmt(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value) (*Plan, error) {
	p, _, err := optimize(sn, stmt, params, false)
	return p, err
}

// optimizeChecked is optimizeStmt plus a record of every selectivity-
// sensitive decision the plan bakes in — the bindChecks a Template
// revalidates cheaply at bind time before reusing its cached plan.
// One-shot compiles skip building the record.
func optimizeChecked(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value) (*Plan, *bindChecks, error) {
	return optimize(sn, stmt, params, true)
}

func optimize(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value, wantChecks bool) (*Plan, *bindChecks, error) {
	bindings, err := bindFrom(sn, stmt)
	if err != nil {
		return nil, nil, err
	}
	pruneColumns(bindings, stmt)

	cls := classify(bindings, stmt.Where)

	// Choose an access path per binding.
	scans := make([]Node, len(bindings))
	est := make([]float64, len(bindings))
	pps := make([]pathPlan, len(bindings))
	for i, b := range bindings {
		scans[i], est[i], pps[i] = accessPath(sn, b, cls.pushed[i], params)
	}

	order := greedyJoinOrder(sn, bindings, est, cls.joins)
	work, buildAcc := simulateJoins(sn, bindings, pps, cls.joins, order)

	// Assemble the join tree in greedy order, consuming join conjuncts.
	// Each hash join probes with its larger estimated input and builds
	// on the smaller (buildAcc): smallest-first ordering keeps the
	// accumulated side small, so it is usually the one to hash, and the
	// binding joining it streams.
	used := make([]bool, len(cls.joins))
	root := scans[order[0]]
	placed := map[int]bool{order[0]: true}
	outEst := est[order[0]]
	for k, bi := range order[1:] {
		var lkey, rkey []int
		var conds []sql.Expr
		sel := 1.0
		for ci, jc := range cls.joins {
			if used[ci] || !connects(jc, placed, bi) {
				continue
			}
			lo, ro, ok := condOffsets(root.Rel(), scans[bi].Rel(), jc.cond)
			if !ok {
				continue
			}
			used[ci] = true
			lkey = append(lkey, lo)
			rkey = append(rkey, ro)
			conds = append(conds, jc.cond.Expr)
			sel *= joinSelectivity(sn, bindings, jc)
		}
		outEst = outEst * est[bi] * sel
		l, r := root, scans[bi]
		if len(lkey) > 0 {
			if buildAcc[k] {
				l, r, lkey, rkey = r, l, rkey, lkey
			}
			root = &HashJoin{L: l, R: r, LKey: lkey, RKey: rkey,
				Conds: conds, Est: ceilEst(outEst), rel: joinRel(l.Rel(), r.Rel())}
		} else {
			root = &CrossJoin{L: l, R: r, Est: ceilEst(outEst), rel: joinRel(l.Rel(), r.Rel())}
		}
		placed[bi] = true
	}

	// Conjuncts that could not be pushed or consumed stay on top.
	residual := cls.residual
	for ci, jc := range cls.joins {
		if !used[ci] {
			residual = append(residual, jc.cond.Expr)
		}
	}
	if pred := sql.And(residual...); pred != nil {
		outEst *= selProduct(residual)
		root = &Filter{In: root, Pred: pred, Est: ceilEst(outEst)}
	}

	// SELECT * must expand in FROM order regardless of join order.
	p, err := finishPlan(root, fromOrderRel(bindings), stmt)
	if err != nil || !wantChecks {
		return p, nil, err
	}
	checks := &bindChecks{
		bindings: bindings,
		pushed:   cls.pushed,
		joins:    cls.joins,
		paths:    pps,
		order:    order,
		buildAcc: buildAcc,
		work:     work,
	}
	for i := range pps {
		if pps[i].choice.kind == pathRange && (pps[i].loP >= 0 || pps[i].hiP >= 0) {
			checks.valueSensitive = true
		}
	}
	return p, checks, nil
}

// simulateJoins walks the join order over per-binding path estimates
// alone, without building nodes, and returns the two things the tree
// bakes in from that walk: the pipeline-work gate input (the largest
// estimated operator cardinality, as pipelineWork reads off the built
// tree) and, per join step, whether the accumulated side is the
// smaller input and therefore the hash join's build side (false: the
// newly joined binding is; ties keep it; a step no equi-join conjunct
// connects becomes a CrossJoin, which has no build side, and records
// false whatever the sizes). optimize assembles the tree from this
// result and Bind recomputes it with the same function, so both
// comparisons are exact for identical inputs.
func simulateJoins(sn *store.Snapshot, bindings []Binding, pps []pathPlan, joins []boundJoin, order []int) (work int, buildAcc []bool) {
	for i := range pps {
		if w := ceilEst(pps[i].scanEst); w > work {
			work = w
		}
	}
	if len(order) < 2 {
		return work, nil
	}
	buildAcc = make([]bool, 0, len(order)-1)
	used := make([]bool, len(joins))
	placed := map[int]bool{order[0]: true}
	outEst := pps[order[0]].outEst
	for _, bi := range order[1:] {
		sel := 1.0
		hashed := false
		for ci, jc := range joins {
			if used[ci] || !connects(jc, placed, bi) {
				continue
			}
			used[ci] = true
			hashed = true
			sel *= joinSelectivity(sn, bindings, jc)
		}
		buildAcc = append(buildAcc, hashed && outEst < pps[bi].outEst)
		outEst = outEst * pps[bi].outEst * sel
		if w := ceilEst(outEst); w > work {
			work = w
		}
		placed[bi] = true
	}
	return work, buildAcc
}

// fromOrderRel lays the bindings out in declaration order (offsets are
// irrelevant for item expansion, which emits qualified references).
func fromOrderRel(bindings []Binding) *Rel {
	rel := &Rel{}
	for _, b := range bindings {
		b.Off = rel.Width
		rel.Bindings = append(rel.Bindings, b)
		rel.Width += len(b.Cols)
	}
	return rel
}

// pruneColumns narrows each binding to the columns the statement (or
// any nested subquery correlating into it) references. SELECT * keeps
// everything.
func pruneColumns(bindings []Binding, stmt *sql.SelectStmt) {
	for _, it := range stmt.Items {
		if it.Star {
			return // full width already bound by bindFrom
		}
	}
	retained := make([]map[int]bool, len(bindings))
	for i := range retained {
		retained[i] = map[int]bool{}
	}
	WalkExprs(stmt, func(e sql.Expr) {
		ref, ok := e.(sql.ColumnRef)
		if !ok {
			return
		}
		for i, b := range bindings {
			if ref.Table != "" && ref.Table != b.Name {
				continue
			}
			if ci := indexOfColumn(b.Meta, ref.Column); ci >= 0 {
				retained[i][ci] = true
			}
		}
	})
	for i := range bindings {
		cols := make([]int, 0, len(retained[i]))
		for ci := range retained[i] {
			cols = append(cols, ci)
		}
		sort.Ints(cols)
		bindings[i].Cols = cols
	}
}

// boundJoin is an equi-join conjunct resolved to a pair of bindings.
type boundJoin struct {
	cond   EquiJoin
	bi, bj int // binding indexes of the two sides
}

func connects(jc boundJoin, placed map[int]bool, next int) bool {
	return (placed[jc.bi] && jc.bj == next) || (placed[jc.bj] && jc.bi == next)
}

// classified is the WHERE clause split by where each conjunct can run.
type classified struct {
	pushed   [][]sql.Expr // per-binding single-table conjuncts
	joins    []boundJoin  // two-table equi-join conjuncts
	residual []sql.Expr   // everything else (subqueries, outer refs, ...)
}

// classify assigns every top-level AND conjunct to the deepest
// operator that can evaluate it. Conjuncts containing subqueries,
// references that resolve ambiguously, or references that resolve to
// no local binding (outer correlation) are conservatively residual.
func classify(bindings []Binding, where sql.Expr) classified {
	cls := classified{pushed: make([][]sql.Expr, len(bindings))}
	for _, c := range conjuncts(where) {
		cls.place(bindings, c)
	}
	return cls
}

func (cls *classified) place(bindings []Binding, c sql.Expr) {
	if containsSubquery(c) {
		cls.residual = append(cls.residual, c)
		return
	}
	touched := map[int]bool{}
	clean := true
	walkRefs(c, func(ref sql.ColumnRef) {
		matches := 0
		for i, b := range bindings {
			if ref.Table != "" && ref.Table != b.Name {
				continue
			}
			if indexOfColumn(b.Meta, ref.Column) >= 0 {
				matches++
				touched[i] = true
			}
		}
		if matches != 1 {
			clean = false
		}
	})
	switch {
	case !clean:
		cls.residual = append(cls.residual, c)
	case len(touched) == 0:
		// Constant predicate (e.g. 1 = 2): residual, evaluated once
		// per surviving row like the seed executor did.
		cls.residual = append(cls.residual, c)
	case len(touched) == 1:
		for bi := range touched {
			cls.pushed[bi] = append(cls.pushed[bi], c)
		}
	case len(touched) == 2:
		if be, ok := c.(*sql.BinaryExpr); ok && be.Op == sql.OpEq {
			lc, lok := be.L.(sql.ColumnRef)
			rc, rok := be.R.(sql.ColumnRef)
			if lok && rok {
				var idx []int
				for bi := range touched {
					idx = append(idx, bi)
				}
				sort.Ints(idx)
				cls.joins = append(cls.joins, boundJoin{
					cond: EquiJoin{L: lc, R: rc, Expr: c}, bi: idx[0], bj: idx[1]})
				return
			}
		}
		cls.residual = append(cls.residual, c)
	default:
		cls.residual = append(cls.residual, c)
	}
}

// walkRefs visits the column references of a subquery-free expression.
func walkRefs(e sql.Expr, visit func(sql.ColumnRef)) {
	switch n := e.(type) {
	case sql.ColumnRef:
		visit(n)
	case *sql.BinaryExpr:
		walkRefs(n.L, visit)
		walkRefs(n.R, visit)
	case *sql.NotExpr:
		walkRefs(n.X, visit)
	case *sql.NegExpr:
		walkRefs(n.X, visit)
	case *sql.FuncCall:
		walkRefs(n.Arg, visit)
	case *sql.InExpr:
		walkRefs(n.X, visit)
		for _, le := range n.List {
			walkRefs(le, visit)
		}
	case *sql.BetweenExpr:
		walkRefs(n.X, visit)
		walkRefs(n.Lo, visit)
		walkRefs(n.Hi, visit)
	case *sql.LikeExpr:
		walkRefs(n.X, visit)
		walkRefs(n.Pattern, visit)
	case *sql.IsNullExpr:
		walkRefs(n.X, visit)
	}
}

// pathKind classifies the access path chosen for one binding.
type pathKind uint8

const (
	pathFullScan pathKind = iota
	pathEq
	pathRange
)

// pathChoice is the stats- and value-sensitive core of an access-path
// decision. Template.Bind recomputes choices from the bound values and
// the snapshot's statistics and compares them against the compiled
// plan's — a mismatch (stats drift, a dropped index, an outlier
// constant) forces a fresh compile instead of reusing the cached tree.
type pathChoice struct {
	kind pathKind
	col  string
}

// pathPlan is one binding's fully-resolved access path: the choice,
// the probe values or parameter slots to scan with, the pushed
// conjuncts the path consumed, and the cardinality estimates.
type pathPlan struct {
	choice         pathChoice
	eq             *store.Value
	lo, hi         *store.Value
	eqP, loP, hiP  int
	loIncl, hiIncl bool
	used           []bool     // pushed conjuncts consumed by the path
	leftover       []sql.Expr // pushed conjuncts the path did not consume
	scanEst        float64    // estimated rows out of the scan node
	outEst         float64    // estimated rows after leftover filters
}

// sameDecision reports whether two path plans over the same pushed
// conjuncts made identical decisions — not just the same access-path
// kind and column, but the same probe/bound slot assignment and the
// same consumed-conjunct set. Template.Bind requires full equality
// before reusing a cached tree: with several bounds competing on one
// column, different constants can keep the choice (range on col) while
// switching which conjunct supplies a bound, and the cached plan's
// baked slots would then enforce the wrong one.
func (pp *pathPlan) sameDecision(other *pathPlan) bool {
	if pp.choice != other.choice ||
		pp.eqP != other.eqP || pp.loP != other.loP || pp.hiP != other.hiP ||
		pp.loIncl != other.loIncl || pp.hiIncl != other.hiIncl ||
		len(pp.used) != len(other.used) {
		return false
	}
	for i := range pp.used {
		if pp.used[i] != other.used[i] {
			return false
		}
	}
	return true
}

// planPath picks the cheapest way to read one table under its pushed
// conjuncts: an index equality probe, an index range scan, or a full
// scan. Probes and bounds resolve through the compile-time parameter
// vector; conjuncts the path does not consume stay for a filter.
func planPath(sn *store.Snapshot, b Binding, pushed []sql.Expr, params []store.Value) pathPlan {
	tab := sn.Table(b.Meta.Name)
	n := float64(tab.Len())
	pp := pathPlan{eqP: -1, loP: -1, hiP: -1, used: make([]bool, len(pushed))}

	// Best indexed equality probe: highest distinct count wins. NULL
	// literals never take an index path — "col = NULL" must evaluate
	// to NULL (reject) per 3VL, not match NULL-keyed index entries.
	bestEq, bestDistinct := -1, 0
	for i, c := range pushed {
		col, v, _, ok := eqColConst(c, params)
		if !ok || v.IsNull() || !tab.HasIndex(col.Column) {
			continue
		}
		if st, ok := tab.Stats(col.Column); ok && st.Distinct > bestDistinct {
			bestEq, bestDistinct = i, st.Distinct
		}
	}
	if bestEq >= 0 {
		col, v, slot, _ := eqColConst(pushed[bestEq], params)
		pp.used[bestEq] = true
		st, _ := tab.Stats(col.Column)
		n = n * st.Selectivity()
		pp.choice = pathChoice{kind: pathEq, col: col.Column}
		if slot >= 0 {
			pp.eqP = slot
		} else {
			pp.eq = &v
		}
	} else if rc := rangeBounds(tab, pushed, params); rc.col != "" {
		for _, i := range rc.used {
			pp.used[i] = true
		}
		n = n * rangeSelectivity(tab, rc.col, rc.lo, rc.hi)
		pp.choice = pathChoice{kind: pathRange, col: rc.col}
		pp.loIncl, pp.hiIncl = rc.loIncl, rc.hiIncl
		pp.loP, pp.hiP = rc.loP, rc.hiP
		if rc.loP < 0 {
			pp.lo = rc.lo
		}
		if rc.hiP < 0 {
			pp.hi = rc.hi
		}
	}
	pp.scanEst = n

	for i, c := range pushed {
		if !pp.used[i] {
			pp.leftover = append(pp.leftover, c)
		}
	}
	pp.outEst = n * selProduct(pp.leftover)
	return pp
}

// accessPath materializes a binding's planned path into operator
// nodes: the scan, plus a filter over the conjuncts the path left
// behind.
func accessPath(sn *store.Snapshot, b Binding, pushed []sql.Expr, params []store.Value) (Node, float64, pathPlan) {
	pp := planPath(sn, b, pushed, params)
	rel := relFor(b)

	var node Node
	switch pp.choice.kind {
	case pathEq:
		node = &IndexScan{B: b, Col: pp.choice.col, Eq: pp.eq, EqP: pp.eqP,
			LoP: -1, HiP: -1, Est: ceilEst(pp.scanEst), rel: rel}
	case pathRange:
		node = &IndexScan{B: b, Col: pp.choice.col, Lo: pp.lo, Hi: pp.hi,
			EqP: -1, LoP: pp.loP, HiP: pp.hiP,
			LoIncl: pp.loIncl, HiIncl: pp.hiIncl, Est: ceilEst(pp.scanEst), rel: rel}
	default:
		// Full scan: derive zone-map skip predicates from the leftover
		// conjuncts (on this branch that is all of them, so the Filter
		// below re-enforces every conjunct a skip derives from), and
		// bake the compile-time skip statistics Explain reports.
		sc := &Scan{B: b, Est: ceilEst(pp.scanEst), rel: rel}
		sc.Skips = zonePreds(b, pp.leftover)
		sc.SegN, sc.SegSkip = segScanStats(sn, b, sc.Skips, params)
		sc.PartN, sc.PartPruned = partScanStats(sn, b, sc.Skips, params)
		node = sc
	}

	if pred := sql.And(pp.leftover...); pred != nil {
		node = &Filter{In: node, Pred: pred, Est: ceilEst(pp.outEst)}
	}
	return node, pp.outEst, pp
}

// rangeChoice is a merged index range over one column: resolved bound
// values (for selectivity), the parameter slots they came from (-1 for
// literals), and the consumed conjunct indexes.
type rangeChoice struct {
	col            string
	lo, hi         *store.Value
	loP, hiP       int
	loIncl, hiIncl bool
	used           []int
}

// rangeBounds collects comparison conjuncts against constants on one
// ordered-indexed column and picks a single range. The column with the
// most usable bounds wins; per direction, the bound tightest under the
// compile-time values is consumed and any looser duplicates stay as
// filter conjuncts — so a template plan rebound with different values
// never widens past a conjunct it dropped.
func rangeBounds(tab *store.TableSnap, pushed []sql.Expr, params []store.Value) rangeChoice {
	type bound struct {
		v       store.Value
		slot    int
		incl    bool
		low     bool
		between bool // one side of a BETWEEN conjunct
		idx     int
	}
	byCol := map[string][]bound{}
	for i, c := range pushed {
		switch e := c.(type) {
		case *sql.BinaryExpr:
			cr, v, slot, flipped, ok := cmpColConst(e, params)
			// A NULL bound makes the whole comparison NULL (reject
			// every row); leave it to the filter, never to the index.
			if !ok || v.IsNull() || !tab.HasOrderedIndex(cr.Column) {
				continue
			}
			op := e.Op
			if flipped { // constant OP col  =>  col OP' constant
				switch op {
				case sql.OpLt:
					op = sql.OpGt
				case sql.OpLe:
					op = sql.OpGe
				case sql.OpGt:
					op = sql.OpLt
				case sql.OpGe:
					op = sql.OpLe
				}
			}
			switch op {
			case sql.OpGt:
				byCol[cr.Column] = append(byCol[cr.Column], bound{v, slot, false, true, false, i})
			case sql.OpGe:
				byCol[cr.Column] = append(byCol[cr.Column], bound{v, slot, true, true, false, i})
			case sql.OpLt:
				byCol[cr.Column] = append(byCol[cr.Column], bound{v, slot, false, false, false, i})
			case sql.OpLe:
				byCol[cr.Column] = append(byCol[cr.Column], bound{v, slot, true, false, false, i})
			}
		case *sql.BetweenExpr:
			cr, ok := e.X.(sql.ColumnRef)
			if !ok || e.Negated || !tab.HasOrderedIndex(cr.Column) {
				continue
			}
			loV, loSlot, lok := constVal(e.Lo, params)
			hiV, hiSlot, hok := constVal(e.Hi, params)
			if !lok || !hok || loV.IsNull() || hiV.IsNull() {
				continue
			}
			byCol[cr.Column] = append(byCol[cr.Column],
				bound{loV, loSlot, true, true, true, i}, bound{hiV, hiSlot, true, false, true, i})
		}
	}
	var bestCol string
	for c, bs := range byCol {
		if bestCol == "" || len(bs) > len(byCol[bestCol]) ||
			(len(bs) == len(byCol[bestCol]) && c < bestCol) {
			bestCol = c
		}
	}
	rc := rangeChoice{loP: -1, hiP: -1}
	if bestCol == "" {
		return rc
	}
	rc.col = bestCol
	var loB, hiB *bound
	for i := range byCol[bestCol] {
		b := &byCol[bestCol][i]
		if b.low {
			if loB == nil || store.Compare(b.v, loB.v) > 0 ||
				(store.Compare(b.v, loB.v) == 0 && !b.incl && loB.incl) {
				loB = b
			}
		} else {
			if hiB == nil || store.Compare(b.v, hiB.v) < 0 ||
				(store.Compare(b.v, hiB.v) == 0 && !b.incl && hiB.incl) {
				hiB = b
			}
		}
	}
	if loB != nil {
		v := loB.v
		rc.lo, rc.loIncl, rc.loP = &v, loB.incl, loB.slot
	}
	if hiB != nil {
		v := hiB.v
		rc.hi, rc.hiIncl, rc.hiP = &v, hiB.incl, hiB.slot
	}
	// Consumption: a conjunct leaves the filter set only when the scan
	// enforces ALL of it. A single-direction comparison is its chosen
	// bound, so being chosen consumes it. A BETWEEN is two bounds: it
	// is consumed only when the scan took both sides from it — if one
	// side lost the merge to a tighter conjunct, the BETWEEN stays a
	// filter (its chosen side is then enforced twice, which is merely
	// redundant), because a rebind with different constants could make
	// the superseded side the binding one.
	bothFrom := loB != nil && hiB != nil && loB.idx == hiB.idx
	if loB != nil && (!loB.between || bothFrom) {
		rc.used = append(rc.used, loB.idx)
	}
	if hiB != nil && (!hiB.between || bothFrom) && !(bothFrom && loB != nil) {
		rc.used = append(rc.used, hiB.idx)
	}
	return rc
}

// rangeSelectivity interpolates numeric ranges against column min/max
// statistics, defaulting to 1/3 when interpolation is impossible.
func rangeSelectivity(tab *store.TableSnap, col string, lo, hi *store.Value) float64 {
	st, ok := tab.Stats(col)
	if !ok || st.Min.IsNull() || st.Max.IsNull() {
		return 1.0 / 3
	}
	minF, okMin := st.Min.AsFloat()
	maxF, okMax := st.Max.AsFloat()
	if !okMin || !okMax || maxF <= minF {
		return 1.0 / 3
	}
	span := maxF - minF
	from, to := minF, maxF
	if lo != nil {
		if f, ok := lo.AsFloat(); ok && f > from {
			from = f
		}
	}
	if hi != nil {
		if f, ok := hi.AsFloat(); ok && f < to {
			to = f
		}
	}
	if to <= from {
		return 1.0 / float64(maxInt(st.Rows, 1))
	}
	return (to - from) / span
}

// selProduct multiplies default selectivities for non-indexable
// conjuncts: equality 1/10, LIKE 1/4, everything else 1/3.
func selProduct(conds []sql.Expr) float64 {
	sel := 1.0
	for _, c := range conds {
		switch e := c.(type) {
		case *sql.BinaryExpr:
			if e.Op == sql.OpEq {
				sel *= 0.1
			} else {
				sel /= 3
			}
		case *sql.LikeExpr:
			sel /= 4
		default:
			sel /= 3
		}
	}
	return sel
}

// greedyJoinOrder picks the starting binding with the lowest estimated
// cardinality, then repeatedly joins the connected binding that yields
// the smallest estimated intermediate result, falling back to the
// smallest unconnected binding (cartesian). Ties break on declaration
// order so plans are deterministic.
func greedyJoinOrder(sn *store.Snapshot, bindings []Binding, est []float64, joins []boundJoin) []int {
	n := len(bindings)
	if n == 1 {
		return []int{0}
	}
	placed := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if est[i] < est[start] {
			start = i
		}
	}
	order := []int{start}
	placed[start] = true
	cur := est[start]
	for len(order) < n {
		next, bestCost, connectedNext := -1, 0.0, false
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			sel := 1.0
			connected := false
			for _, jc := range joins {
				if (placed[jc.bi] && jc.bj == i) || (placed[jc.bj] && jc.bi == i) {
					connected = true
					sel *= joinSelectivity(sn, bindings, jc)
				}
			}
			cost := cur * est[i] * sel
			better := next == -1 ||
				(connected && !connectedNext) ||
				(connected == connectedNext && cost < bestCost)
			if better {
				next, bestCost, connectedNext = i, cost, connected
			}
		}
		placed[next] = true
		order = append(order, next)
		cur = bestCost
	}
	return order
}

// joinSelectivity estimates an equi-join conjunct as 1/max(distinct
// values on either side).
func joinSelectivity(sn *store.Snapshot, bindings []Binding, jc boundJoin) float64 {
	d := 1
	for _, side := range []struct {
		bi  int
		ref sql.ColumnRef
	}{{jc.bi, jc.cond.L}, {jc.bj, jc.cond.R}, {jc.bi, jc.cond.R}, {jc.bj, jc.cond.L}} {
		b := bindings[side.bi]
		if side.ref.Table != "" && side.ref.Table != b.Name {
			continue
		}
		if indexOfColumn(b.Meta, side.ref.Column) < 0 {
			continue
		}
		if st, ok := sn.Table(b.Meta.Name).Stats(side.ref.Column); ok && st.Distinct > d {
			d = st.Distinct
		}
	}
	return 1.0 / float64(d)
}

// EqColLiteral matches "col = literal" in either orientation.
func EqColLiteral(e sql.Expr) (sql.ColumnRef, sql.Literal, bool) {
	be, ok := e.(*sql.BinaryExpr)
	if !ok || be.Op != sql.OpEq {
		return sql.ColumnRef{}, sql.Literal{}, false
	}
	if c, ok := be.L.(sql.ColumnRef); ok {
		if l, ok := be.R.(sql.Literal); ok {
			return c, l, true
		}
	}
	if c, ok := be.R.(sql.ColumnRef); ok {
		if l, ok := be.L.(sql.Literal); ok {
			return c, l, true
		}
	}
	return sql.ColumnRef{}, sql.Literal{}, false
}

// constVal resolves e as a plannable constant: a literal's value, or a
// parameter's compile-time value from params (the binding a template
// is compiled or re-bound with). slot is the parameter index, -1 for
// literals; ok is false for any other expression, and for a parameter
// when no compile-time vector is available — such conjuncts simply
// stay in filters.
func constVal(e sql.Expr, params []store.Value) (v store.Value, slot int, ok bool) {
	switch n := e.(type) {
	case sql.Literal:
		return n.Val, -1, true
	case sql.Param:
		if n.Idx >= 0 && n.Idx < len(params) {
			return params[n.Idx], n.Idx, true
		}
	}
	return store.Value{}, -1, false
}

// eqColConst matches "col = constant" in either orientation, where the
// constant is a literal or a resolvable parameter.
func eqColConst(e sql.Expr, params []store.Value) (sql.ColumnRef, store.Value, int, bool) {
	be, ok := e.(*sql.BinaryExpr)
	if !ok || be.Op != sql.OpEq {
		return sql.ColumnRef{}, store.Value{}, -1, false
	}
	if c, ok := be.L.(sql.ColumnRef); ok {
		if v, slot, ok := constVal(be.R, params); ok {
			return c, v, slot, true
		}
	}
	if c, ok := be.R.(sql.ColumnRef); ok {
		if v, slot, ok := constVal(be.L, params); ok {
			return c, v, slot, true
		}
	}
	return sql.ColumnRef{}, store.Value{}, -1, false
}

// cmpColConst matches a comparison between a column and a constant;
// flipped reports the constant being on the left.
func cmpColConst(be *sql.BinaryExpr, params []store.Value) (sql.ColumnRef, store.Value, int, bool, bool) {
	if !be.Op.IsComparison() {
		return sql.ColumnRef{}, store.Value{}, -1, false, false
	}
	if c, ok := be.L.(sql.ColumnRef); ok {
		if v, slot, ok := constVal(be.R, params); ok {
			return c, v, slot, false, true
		}
	}
	if c, ok := be.R.(sql.ColumnRef); ok {
		if v, slot, ok := constVal(be.L, params); ok {
			return c, v, slot, true, true
		}
	}
	return sql.ColumnRef{}, store.Value{}, -1, false, false
}

func ceilEst(f float64) int {
	if f <= 0 {
		return 0
	}
	n := int(f)
	if float64(n) < f {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
