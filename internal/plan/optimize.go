package plan

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/sql"
	"repro/internal/store"
)

// Compile lowers stmt into an optimized plan — the path exec.Query
// takes: WHERE conjuncts are pushed down to the scans they constrain
// (and turned into zone-map skips), scans are pruned to the columns the
// query touches, and joins are ordered greedily so the cheapest, most
// selective inputs join first. The rewrite never changes results: every
// conjunct is either pushed, consumed by a hash join, or kept in a
// residual filter above the joins, and three-valued logic is preserved
// because a top-level AND accepts a row only when every conjunct is
// exactly TRUE. Planning reads the schema's keys and the pinned
// snapshot's row counts and segment zone maps — never a
// segment's values — so a plan compiled and run against the same
// Snapshot is internally consistent even while writers publish new
// versions.
//
// Each uncorrelated subquery compiles here too, as a serial plan of its
// own that every run of this one runs once; a correlated one fails the
// compile with ErrUnsupported.
func Compile(sn *store.Snapshot, stmt *sql.SelectStmt) (*Plan, error) {
	return optimize(sn, stmt, nil, nil)
}

// CompileWith compiles a parameterized statement (sql.Param slots in
// place of lifted literals) against the values it is bound to. Scans
// keep parameter *slots* in their skip predicates, re-resolved from
// Ctx.Params at every open, so the compiled tree stays valid for any
// later binding of the same shape (see Template); the values only feed
// the skip statistics Explain reports.
func CompileWith(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value) (*Plan, error) {
	return optimize(sn, stmt, params, nil)
}

// optimize compiles stmt, a subquery of statements whose FROM clauses
// outer lays out (outermost first) when it is not empty.
func optimize(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value, outer []*Rel) (*Plan, error) {
	bindings, err := bindFrom(sn, stmt)
	if err != nil {
		return nil, err
	}
	if len(outer) > 0 {
		if ref, ok := outerRef(stmt, fromOrderRel(bindings), outer); ok {
			return nil, fmt.Errorf("%w: a correlated subquery, reading %s of an enclosing statement, in %s",
				ErrUnsupported, ref, stmt)
		}
	}
	subs, err := subqueries(sn, stmt, params, outer, bindings)
	if err != nil {
		return nil, err
	}
	pruneColumns(bindings, stmt)

	cls := classify(bindings, stmt.Where)

	// One scan per binding, filtered by its pushed conjuncts.
	scans := make([]Node, len(bindings))
	est := make([]float64, len(bindings))
	for i, b := range bindings {
		scans[i], est[i] = accessPath(sn, b, cls.pushed[i], params)
	}

	order := greedyJoinOrder(sn, bindings, est, cls.joins)

	// Assemble the join tree in greedy order, consuming join conjuncts.
	// Each hash join probes with its larger estimated input and builds
	// on the smaller: smallest-first ordering keeps the accumulated side
	// small, so it is usually the one to hash, and the binding joining
	// it streams (ties keep the new binding as the build side).
	used := make([]bool, len(cls.joins))
	root := scans[order[0]]
	placed := map[int]bool{order[0]: true}
	outEst := est[order[0]]
	for _, bi := range order[1:] {
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
		buildAcc := outEst < est[bi]
		outEst = outEst * est[bi] * sel
		l, r := root, scans[bi]
		if len(lkey) > 0 {
			if buildAcc {
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
	if err != nil {
		return nil, err
	}
	markLive(p.Root, nil)
	p.subs = subs
	return p, nil
}

// SubplanCompiles counts the subquery plans the process has compiled.
// Only a compile compiles one, so a test reads here that running a
// plan compiles nothing.
var SubplanCompiles atomic.Int64

// subqueries compiles the subqueries stmt's own expressions name, each
// once, as a plan of its own in the scope of the statements around it.
// A correlated one fails the compile with ErrUnsupported; any other
// error compiling one is kept, for the statement to raise where it
// needs the value.
func subqueries(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value, outer []*Rel, bindings []Binding) ([]subquery, error) {
	var subs []subquery
	var scope []*Rel
	var err error
	sql.WalkStmt(stmt, func(e sql.Expr) bool {
		sub := sql.Nested(e)
		if sub == nil || slices.ContainsFunc(subs, func(s subquery) bool { return s.stmt == sub }) {
			return true
		}
		if scope == nil {
			scope = append(slices.Clip(outer), fromOrderRel(bindings))
		}
		SubplanCompiles.Add(1)
		s := subquery{stmt: sub}
		if s.plan, s.err = optimize(sn, sub, params, scope); errors.Is(s.err, ErrUnsupported) {
			err = s.err
			return false
		}
		subs = append(subs, s)
		return true
	})
	return subs, err
}

// outerRef finds a column reference among stmt's own expressions that
// resolves not in its FROM clause, rel, but in an enclosing
// statement's: what makes a subquery correlated. A select-list alias
// (read by ORDER BY) is stmt's own.
func outerRef(stmt *sql.SelectStmt, rel *Rel, outer []*Rel) (sql.ColumnRef, bool) {
	resolves := func(rel *Rel, ref sql.ColumnRef) bool {
		_, ok, ambiguous := OffsetIn(rel, ref)
		return ok || ambiguous
	}
	var found sql.ColumnRef
	ok := false
	sql.WalkStmt(stmt, func(e sql.Expr) bool {
		ref, isRef := e.(sql.ColumnRef)
		if !isRef || resolves(rel, ref) ||
			ref.Table == "" && slices.ContainsFunc(stmt.Items, func(it sql.SelectItem) bool { return it.Alias == ref.Column }) {
			return true
		}
		found = ref
		ok = slices.ContainsFunc(outer, func(o *Rel) bool { return resolves(o, ref) })
		return !ok
	})
	return found, ok
}

// markLive records on every join under n which of its output columns
// the operators above it read — need, over n's row shape, nil for all
// of them — so that a join drains and writes only those and its own
// keys (HashJoin.vopen). Offsets stay as they are: a column nothing
// reads travels all-NULL. Pruning the scans (pruneColumns) cannot do
// this, because a join key is read by its join and by nothing above.
func markLive(n Node, need []bool) {
	switch t := n.(type) {
	case *Project:
		markLive(t.In, addReads(make([]bool, t.In.Rel().Width), t.In.Rel(), t.Items, t.SortKeys))
	case *Aggregate:
		markLive(t.In, addReads(make([]bool, t.In.Rel().Width), t.In.Rel(),
			t.GroupBy, t.Items, t.SortKeys, []sql.Expr{t.Having}))
	case *Filter:
		markLive(t.In, addReads(need, t.In.Rel(), []sql.Expr{t.Pred}))
	case *HashJoin:
		t.live = need
		l, r := splitNeed(need, t.L.Rel().Width)
		if need != nil {
			for _, off := range t.LKey {
				l[off] = true
			}
			for _, off := range t.RKey {
				r[off] = true
			}
		}
		markLive(t.L, l)
		markLive(t.R, r)
	case *CrossJoin:
		t.live = need
		l, r := splitNeed(need, t.L.Rel().Width)
		markLive(t.L, l)
		markLive(t.R, r)
	default:
		for _, c := range n.Children() {
			markLive(c, nil)
		}
	}
}

// splitNeed cuts a join's need at the width of its left input into
// copies a side may extend; for nil, every column of both sides.
func splitNeed(need []bool, lWidth int) (l, r []bool) {
	if need == nil {
		return nil, nil
	}
	return slices.Clone(need[:lWidth]), slices.Clone(need[lWidth:])
}

// addReads marks in need the columns of rel that exprs read, and
// returns need — or nil, every column, when need is nil or a reference
// resolves ambiguously. A nested statement reads none of them: a
// correlated one does not compile.
func addReads(need []bool, rel *Rel, exprs ...[]sql.Expr) []bool {
	for _, es := range exprs {
		for _, e := range es {
			sql.Walk(e, func(x sql.Expr) bool {
				if need == nil {
					return false
				}
				if ref, ok := x.(sql.ColumnRef); ok {
					switch off, ok, ambiguous := OffsetIn(rel, ref); {
					case ambiguous:
						need = nil
					case ok:
						need[off] = true
					}
				}
				return true
			})
		}
	}
	return need
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
	var retain func(*sql.SelectStmt)
	retain = func(s *sql.SelectStmt) {
		sql.WalkStmt(s, func(e sql.Expr) bool {
			if sub := sql.Nested(e); sub != nil {
				retain(sub)
			}
			ref, ok := e.(sql.ColumnRef)
			if !ok {
				return true
			}
			for i, b := range bindings {
				if ref.Table != "" && ref.Table != b.Name {
					continue
				}
				if ci := indexOfColumn(b.Meta, ref.Column); ci >= 0 {
					retained[i][ci] = true
				}
			}
			return true
		})
	}
	retain(stmt)
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
	touched := map[int]bool{}
	clean := true
	sql.Walk(c, func(e sql.Expr) bool {
		if sql.Nested(e) != nil {
			clean = false
		}
		ref, ok := e.(sql.ColumnRef)
		if !ok {
			return clean
		}
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
		return clean
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

// accessPath reads one binding: a full scan whose zone-map skip
// predicates derive from the pushed conjuncts, under a filter that
// re-enforces every one of them. It returns the node and its estimated
// output rows. The scan bakes in the compile-time skip statistics
// Explain reports.
func accessPath(sn *store.Snapshot, b Binding, pushed []sql.Expr, params []store.Value) (Node, float64) {
	n := float64(sn.Table(b.Meta.Name).Len())
	sc := &Scan{B: b, Est: ceilEst(n), rel: relFor(b)}
	sc.Skips = zonePreds(b, pushed)
	sc.SegN, sc.SegSkip = segScanStats(sn, b, sc.Skips, params)
	out := n * selProduct(pushed)
	if pred := sql.And(pushed...); pred != nil {
		return &Filter{In: sc, Pred: pred, Est: ceilEst(out)}, out
	}
	return sc, out
}

// selProduct multiplies default selectivities for filter conjuncts:
// equality 1/10, LIKE 1/4, everything else 1/3.
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
// values on either side), each side's count bounded from the schema
// and row counts by distinctBound.
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
		d = max(d, distinctBound(sn, b.Meta.Name, side.ref.Column))
	}
	return 1.0 / float64(d)
}

// distinctBound bounds the distinct values of table.col without
// reading a row: a declared foreign key holds at most as many as the
// table it references has rows, and no column — a primary key, whose
// count this is exactly, or an undeclared one — more than its own
// table has rows. For the FK → PK joins the schema declares, the
// larger side's bound is the PK table's row count, its exact distinct
// count.
func distinctBound(sn *store.Snapshot, table, col string) int {
	n := sn.Table(table).Len()
	for _, fk := range sn.Schema.ForeignKeys {
		if fk.Table == table && fk.Column == col {
			return min(n, sn.Table(fk.RefTable).Len())
		}
	}
	return n
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
