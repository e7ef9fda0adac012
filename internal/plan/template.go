package plan

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/store"
)

// Template is a query compiled once against parameter slots and bound
// many times with different constants — the unit the engine's plan-
// template cache stores. CompileTemplate does the full optimization
// work (binding, pruning, conjunct classification, join-order search)
// using an exemplar parameter vector; Bind then serves subsequent
// constants of the same shape by reusing the compiled tree, which is
// orders of magnitude cheaper than planning from scratch.
//
// No planning decision reads a parameter value: estimates come from
// row counts, distinct counts and shape-based selectivities, and the
// only value-dependent work — zone-map skips — is re-derived from
// Ctx.Params at every open. So the cached tree is
// exactly what a fresh compile would build for as long as the
// statistics it read stand, that is, while every table it reads is at
// the version it was compiled against (the stats epoch) and the worker
// degree is the same. Bind reuses it then and recompiles otherwise.
//
// The cached plan is shared and immutable: every expression keeps its
// sql.Param leaves, resolved from Ctx.Params at open time, so
// concurrent executions with different bindings never interfere.
type Template struct {
	Stmt       *sql.SelectStmt // parameterized statement (sql.Param leaves)
	ParamKinds []store.Kind    // declared kind per slot, the shape contract
	Par        int             // worker degree the cached plan targets

	plan *Plan

	// tables/versions fingerprint the statistics epoch the template
	// was optimized against.
	tables   []string
	versions []uint64
}

// CompileTemplate compiles a parameterized statement into a reusable
// template. params is the exemplar binding (normally the constants the
// template was normalized from); par is the worker degree the cached
// plan is parallelized for.
func CompileTemplate(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value, par int) (*Template, error) {
	kinds := make([]store.Kind, len(params))
	for i, v := range params {
		kinds[i] = v.Kind()
	}
	if n := sql.NumParams(stmt); n > len(params) {
		return nil, fmt.Errorf("plan: template references $%d but only %d parameter values were supplied", n, len(params))
	}
	p, err := optimize(sn, stmt, params)
	if err != nil {
		return nil, err
	}
	tables := sql.Tables(stmt)
	versions := make([]uint64, len(tables))
	for i, name := range tables {
		versions[i] = sn.TableVersion(name)
	}
	return &Template{
		Stmt:       stmt,
		ParamKinds: kinds,
		Par:        par,
		plan:       Parallelize(p, par),
		tables:     tables,
		versions:   versions,
	}, nil
}

// IndexesLive always reports true: the store has no secondary indexes
// for a cached plan to outlive. It exists only because benchmark/ is
// frozen and compiles against this name; it goes when
// benchmark/replay.go is next opened.
func (t *Template) IndexesLive(*store.Snapshot) bool { return true }

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

// Bind produces a runnable plan for one parameter binding: the shared
// compiled tree when sn is in the template's stats epoch and par is its
// degree (reused reports this), a fresh compile at the bound values
// otherwise. Results are identical either way; only the tree shape may
// differ.
func (t *Template) Bind(sn *store.Snapshot, params []store.Value, par int) (p *Plan, reused bool, err error) {
	if err := t.Validate(params); err != nil {
		return nil, false, err
	}
	if par == t.Par && t.sameEpoch(sn) {
		return t.plan, true, nil
	}
	return t.recompile(sn, params, par)
}

// recompile is the bind slow path: a fresh optimization at the bound
// values, returned without touching the cached exemplar plan.
func (t *Template) recompile(sn *store.Snapshot, params []store.Value, par int) (*Plan, bool, error) {
	fresh, err := optimize(sn, t.Stmt, params)
	if err != nil {
		return nil, false, err
	}
	return Parallelize(fresh, par), false, nil
}

// BindPinned is Bind for a caller that has already pinned the
// template's validity — the engine's plan cache, whose shape key
// encodes the parameter kind signature and whose lookup revalidates
// the per-table stats epoch against the same snapshot. With both
// guaranteed, only the degree is left to check.
func (t *Template) BindPinned(sn *store.Snapshot, params []store.Value, par int) (p *Plan, reused bool, err error) {
	if par == t.Par {
		return t.plan, true, nil
	}
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
