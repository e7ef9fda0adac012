package plan

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/store"
)

// Template is a query compiled once against parameter slots and bound
// many times with different constants — the unit the engine's plan
// cache stores. CompileTemplate does the full optimization work
// (binding, pruning, conjunct classification, join-order search) using
// an exemplar parameter vector; BindPinned then serves later constants
// of the same shape by reusing the compiled tree, which is orders of
// magnitude cheaper than planning from scratch.
//
// No planning decision reads a parameter value: estimates come from
// row counts, the schema's keys and shape-based selectivities, and the
// only value-dependent work — zone-map skips — is decided at every
// open by the Filter's kernels, compiled from Ctx.Params. So the cached
// tree is exactly what a fresh compile would build for as long as the
// row counts it read stand and the worker degree is the same. Knowing when the row counts have
// moved is the caller's job: the engine's plan cache records the
// version of every table the template reads and misses once one has
// moved.
//
// The cached plan is shared and immutable: every expression keeps its
// sql.Param leaves, resolved from Ctx.Params at open time, so
// concurrent executions with different bindings never interfere.
type Template struct {
	Stmt *sql.SelectStmt // parameterized statement (sql.Param leaves)
	Par  int             // worker degree the cached plan targets

	plan *Plan
}

// CompileTemplate compiles a parameterized statement into a reusable
// template. params is the exemplar binding (normally the constants the
// template was normalized from); par is the worker degree the cached
// plan is parallelized for.
func CompileTemplate(sn *store.Snapshot, stmt *sql.SelectStmt, params []store.Value, par int) (*Template, error) {
	if n := sql.NumParams(stmt); n > len(params) {
		return nil, fmt.Errorf("plan: template references $%d but only %d parameter values were supplied", n, len(params))
	}
	p, err := optimize(sn, stmt, params, nil)
	if err != nil {
		return nil, err
	}
	return &Template{Stmt: stmt, Par: par, plan: Parallelize(p, par)}, nil
}

// IndexesLive always reports true: the store has no secondary indexes
// for a cached plan to outlive. It exists only because benchmark/ is
// frozen and compiles against this name; it goes when
// benchmark/replay.go is next opened.
func (t *Template) IndexesLive(*store.Snapshot) bool { return true }

// BindPinned produces a runnable plan for one parameter binding, for a
// caller that has pinned the template's validity: params has the kinds
// the template was compiled for (the engine's shape key encodes them)
// and sn holds every table the template reads at the version it was
// compiled against (the plan cache's lookup checked it). At the
// template's degree that is the shared compiled tree (reused); at
// another it is a fresh compile at the bound values, the cached tree
// untouched. Results are identical either way.
func (t *Template) BindPinned(sn *store.Snapshot, params []store.Value, par int) (p *Plan, reused bool, err error) {
	if par == t.Par {
		return t.plan, true, nil
	}
	fresh, err := optimize(sn, t.Stmt, params, nil)
	if err != nil {
		return nil, false, err
	}
	return Parallelize(fresh, par), false, nil
}

// Plan exposes the cached exemplar plan (for explain and tests).
func (t *Template) Plan() *Plan { return t.plan }
