package plan

import (
	"fmt"
	"slices"

	"repro/internal/sql"
	"repro/internal/store"
)

// Template is a query compiled once against parameter slots and bound
// many times with different constants — the unit the engine's plan-
// template cache stores. CompileTemplate does the full optimization
// work (binding, pruning, conjunct classification, access-path and
// join-order search, vectorizability analysis) using an exemplar
// parameter vector for every value-sensitive estimate; Bind then
// serves subsequent constants of the same shape by revalidating just
// the selectivity-sensitive decisions and reusing the compiled tree,
// which is orders of magnitude cheaper than planning from scratch.
//
// The cached plan is shared and immutable: probes and bounds that came
// from parameters are stored as slots resolved from Ctx.Params at open
// time, and every expression keeps its sql.Param leaves, so concurrent
// executions with different bindings never interfere.
type Template struct {
	Stmt       *sql.SelectStmt // parameterized statement (sql.Param leaves)
	ParamKinds []store.Kind    // declared kind per slot, the shape contract
	Par        int             // worker degree the cached plan targets

	plan   *Plan
	checks *bindChecks

	// tables/versions fingerprint the statistics epoch the template
	// was optimized against. While a binding snapshot still matches,
	// every stats-derived planning input is bit-identical, so Bind can
	// skip the decision re-checks unless a parameter value itself
	// feeds an estimate (checks.valueSensitive).
	tables   []string
	versions []uint64

	// indexDeps are the index scans the cached plan performs. Index
	// DDL deliberately does not move table versions (data is
	// unchanged), so the epoch fingerprint cannot see a DropIndex;
	// every fast-path reuse re-checks that these indexes still exist
	// and falls back to a recompile — which plans a scan — otherwise.
	indexDeps []indexDep
}

type indexDep struct {
	table, col string
	ordered    bool // needs the ordered index (range scan) vs the hash index
}

// bindChecks records the selectivity-sensitive decisions baked into a
// template's cached plan. Bind re-derives each from the bound values
// and the snapshot's current statistics — cheap arithmetic over the
// cached conjunct classification, no tree building — and only reuses
// the plan when every decision stands.
type bindChecks struct {
	bindings []Binding    // pruned FROM bindings
	pushed   [][]sql.Expr // per-binding pushed conjuncts
	joins    []boundJoin  // two-table equi-join conjuncts
	paths    []pathPlan   // full access-path decision per binding
	order    []int        // greedy join order
	buildAcc []bool       // per join step: the accumulated side is the build side
	work     int          // pipeline-work gate input (see simulateJoins)

	// valueSensitive marks plans whose estimates read a parameter
	// value: a param-driven index range bound is the only such input
	// (equality selectivity is 1/distinct, residual selectivities are
	// shape-based). Shapes without one rebind for free within an
	// unchanged stats epoch.
	valueSensitive bool
}

// CompileTemplate compiles a parameterized statement into a reusable
// template. params is the exemplar binding (normally the constants the
// template was normalized from) used for selectivity estimates; par is
// the worker degree the cached plan is parallelized for.
func CompileTemplate(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value, par int) (*Template, error) {
	kinds := make([]store.Kind, len(params))
	for i, v := range params {
		kinds[i] = v.Kind()
	}
	if n := sql.NumParams(stmt); n > len(params) {
		return nil, fmt.Errorf("plan: template references $%d but only %d parameter values were supplied", n, len(params))
	}
	p, checks, err := optimizeChecked(sn, stmt, params)
	if err != nil {
		return nil, err
	}
	tables := sql.Tables(stmt)
	versions := make([]uint64, len(tables))
	for i, name := range tables {
		versions[i] = sn.TableVersion(name)
	}
	t := &Template{
		Stmt:       stmt,
		ParamKinds: kinds,
		Par:        par,
		plan:       Parallelize(p, par),
		checks:     checks,
		tables:     tables,
		versions:   versions,
	}
	Walk(t.plan.Root, func(n Node) {
		if s, ok := n.(*IndexScan); ok {
			t.indexDeps = append(t.indexDeps, indexDep{
				table: s.B.Meta.Name, col: s.Col,
				ordered: s.Eq == nil && s.EqP < 0,
			})
		}
	})
	return t, nil
}

// IndexesLive reports whether every index the cached plan probes
// still exists in sn. Callers holding a template in a cache use it to
// tell a permanently stale entry (dropped index — every future bind
// would recompile) from a value-driven one-off recompile, and replace
// the former.
func (t *Template) IndexesLive(sn *store.Snapshot) bool { return t.indexesLive(sn) }

// indexesLive reports whether every index the cached plan probes still
// exists in sn.
func (t *Template) indexesLive(sn *store.Snapshot) bool {
	for _, d := range t.indexDeps {
		tab := sn.Table(d.table)
		if tab == nil {
			return false
		}
		if d.ordered {
			if !tab.HasOrderedIndex(d.col) {
				return false
			}
		} else if !tab.HasIndex(d.col) {
			return false
		}
	}
	return true
}

// sameEpoch reports whether sn still holds every dependency table at
// the version the template was compiled against — and therefore the
// exact statistics its cost decisions were made from.
func (t *Template) sameEpoch(sn *store.Snapshot) bool {
	for i, name := range t.tables {
		if sn.TableVersion(name) != t.versions[i] {
			return false
		}
	}
	return true
}

// Bind produces a runnable plan for one parameter binding. The fast
// path revalidates the cached plan's selectivity-sensitive choices —
// access paths, join order, hash-join build sides, the parallelize
// gate — against the bound values and sn's statistics and returns the
// shared compiled tree when they all stand (reused reports this). When
// any choice would change (table statistics drifted after a load, an
// index was dropped, an outlier constant moved a range estimate), Bind
// falls back to a full recompile at the new values, returning a plan
// optimized for them; results are identical either way, only the tree
// shape differs.
func (t *Template) Bind(sn *store.Snapshot, params []store.Value, par int) (p *Plan, reused bool, err error) {
	if err := t.Validate(params); err != nil {
		return nil, false, err
	}
	if par == t.Par && t.indexesLive(sn) {
		// Unchanged stats epoch + no value-fed estimates: every input
		// to every planning decision is bit-identical, reuse without
		// re-deriving anything. Otherwise re-check the decisions.
		if t.sameEpoch(sn) && !t.checks.valueSensitive {
			return t.plan, true, nil
		}
		if t.rebindOK(sn, params) {
			return t.plan, true, nil
		}
	}
	return t.recompile(sn, params, par)
}

// recompile is the bind slow path: a fresh optimization at the bound
// values, returned without touching the cached exemplar plan.
func (t *Template) recompile(sn *store.Snapshot, params []store.Value, par int) (*Plan, bool, error) {
	fresh, err := optimizeStmt(sn, t.Stmt, params)
	if err != nil {
		return nil, false, err
	}
	return Parallelize(fresh, par), false, nil
}

// BindPinned is Bind for a caller that has already pinned the
// template's validity — the engine's plan cache, whose shape key
// encodes the parameter kind signature and whose lookup revalidates
// the per-table stats epoch against the same snapshot. With both
// guaranteed, a value-insensitive shape rebinds with a single flag
// test; value-sensitive shapes still re-check their estimates.
func (t *Template) BindPinned(sn *store.Snapshot, params []store.Value, par int) (p *Plan, reused bool, err error) {
	if par == t.Par && t.indexesLive(sn) {
		if !t.checks.valueSensitive || t.rebindOK(sn, params) {
			return t.plan, true, nil
		}
	}
	// The re-check already failed (or the degree differs): go straight
	// to the slow path instead of Bind, which would repeat it.
	return t.recompile(sn, params, par)
}

// Validate checks a parameter vector against the template's shape
// contract: one value per slot, each of the declared kind. Kind-stable
// binding is what keeps every kind-dependent compilation decision in
// the cached plan valid.
func (t *Template) Validate(params []store.Value) error {
	if len(params) != len(t.ParamKinds) {
		return fmt.Errorf("plan: template wants %d parameters, got %d", len(t.ParamKinds), len(params))
	}
	for i, v := range params {
		if v.Kind() != t.ParamKinds[i] {
			return fmt.Errorf("plan: parameter $%d must be %v, got %v", i+1, t.ParamKinds[i], v.Kind())
		}
	}
	return nil
}

// Plan exposes the cached exemplar plan (for explain and tests).
func (t *Template) Plan() *Plan { return t.plan }

// rebindOK reports whether the cached plan's decisions survive under
// the new binding and the snapshot's current statistics.
func (t *Template) rebindOK(sn *store.Snapshot, params []store.Value) bool {
	c := t.checks
	pps := make([]pathPlan, len(c.bindings))
	for i, b := range c.bindings {
		if sn.Table(b.Meta.Name) == nil {
			return false
		}
		pps[i] = planPath(sn, b, c.pushed[i], params)
		if !pps[i].sameDecision(&c.paths[i]) {
			return false
		}
	}
	est := make([]float64, len(pps))
	for i := range pps {
		est[i] = pps[i].outEst
	}
	order := greedyJoinOrder(sn, c.bindings, est, c.joins)
	for i := range order {
		if order[i] != c.order[i] {
			return false
		}
	}
	// Which input of each hash join is the smaller one decides its
	// build side; a load that inverts two inputs' sizes without moving
	// the join order still stales the tree.
	work, buildAcc := simulateJoins(sn, c.bindings, pps, c.joins, order)
	if !slices.Equal(buildAcc, c.buildAcc) {
		return false
	}
	// The parallelize gate compares against the same threshold the
	// rewrite used; crossing it in either direction means the cached
	// tree's exchange decision no longer matches what a fresh compile
	// would choose.
	return (work >= minParallelRows) == (c.work >= minParallelRows)
}
