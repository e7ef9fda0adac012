// Prepared statements: the compile-once / bind-many execution path.
// Prepare splits a statement into a parameterized template (its shape)
// and a constant vector (its binding), compiles the template through
// the planning layer once, and lets every later ask of the same shape
// skip planning — the template's Bind reuses the compiled plan while
// the snapshot's statistics are the ones it was compiled against and
// recompiles once a load has moved them.
package exec

import (
	"context"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// PreparedQuery is a statement compiled once against parameter slots
// and executable many times with different constants. It is immutable
// and safe for concurrent Bind/Run calls — the serving setup is one
// prepared query per shape, shared by every request handler.
type PreparedQuery struct {
	Stmt *sql.SelectStmt // the parameterized template statement
	Tmpl *plan.Template
}

// Prepare normalizes stmt — lifting its literal constants into a
// parameter vector — and compiles a plan template against the slots,
// with the lifted values as the optimizer's exemplar binding and the
// cached plan rewritten for intra-query parallelism at degree par. The
// returned vector re-creates the original statement's semantics when
// passed back to PreparedQuery.Run.
func Prepare(sn *store.Snapshot, stmt *sql.SelectStmt, par int) (*PreparedQuery, []store.Value, error) {
	tmpl, params := sql.Parameterize(stmt)
	pq, err := PrepareTemplateAt(sn, tmpl, params, par)
	if err != nil {
		return nil, nil, err
	}
	return pq, params, nil
}

// PrepareTemplateAt compiles an already-parameterized statement (the
// form the engine holds after normalizing a generated query) using
// exemplar as the optimizer's value binding.
func PrepareTemplateAt(sn *store.Snapshot, tmpl *sql.SelectStmt, exemplar []store.Value, par int) (*PreparedQuery, error) {
	t, err := plan.CompileTemplate(sn, tmpl, exemplar, par)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{Stmt: tmpl, Tmpl: t}, nil
}

// ShapeKey returns the cache key identifying this prepared query's
// plan shape (template SQL plus parameter kind signature).
func (pq *PreparedQuery) ShapeKey() string {
	return sql.ShapeKeyOfKinds(pq.Stmt, pq.Tmpl.ParamKinds)
}

// Bind produces a runnable plan for one constant vector. reused
// reports the fast path: the template's cached plan revalidated and
// returned as-is, with only the parameter vector changing.
func (pq *PreparedQuery) Bind(sn *store.Snapshot, params []store.Value, par int) (*plan.Plan, bool, error) {
	return pq.Tmpl.Bind(sn, params, par)
}

// BindPinned is Bind minus the kind and stats-epoch validation, for a
// caller that has already established both (see Template.BindPinned).
func (pq *PreparedQuery) BindPinned(sn *store.Snapshot, params []store.Value, par int) (*plan.Plan, bool, error) {
	return pq.Tmpl.BindPinned(sn, params, par)
}

// Run binds the prepared query at degree par (<= 1 is serial) and
// executes it against a pinned snapshot. Results are row-for-row
// identical to executing the original statement through Query.
func (pq *PreparedQuery) Run(ctx context.Context, sn *store.Snapshot, params []store.Value, par int) (*Result, error) {
	p, _, err := pq.Bind(sn, params, par)
	if err != nil {
		return nil, err
	}
	return Run(ctx, sn, p, RunOpts{Params: params})
}
