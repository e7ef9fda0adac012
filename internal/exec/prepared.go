// Prepared statements: the compile-once / bind-many execution path.
// A statement normalized by sql.Parameterize into a template (its
// shape) and a constant vector (its binding) compiles through the
// planning layer once; every later ask of the same shape skips
// planning and pays only a bind. Which templates are still valid is
// the caller's to track (the engine's plan cache does, per table).
package exec

import (
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// PreparedQuery is a statement compiled once against parameter slots
// and executable many times with different constants. It is immutable
// and safe for concurrent BindPinned calls — the serving setup is one
// prepared query per shape, shared by every request handler.
type PreparedQuery struct {
	Tmpl *plan.Template // holds the parameterized statement (Tmpl.Stmt)
}

// PrepareTemplateAt compiles an already-parameterized statement (the
// form the engine holds after normalizing a generated query) using
// exemplar as the optimizer's value binding and parallelizing the
// cached plan at degree par. Run a bound plan with exec.Run and
// RunOpts{Params: …}.
func PrepareTemplateAt(sn *store.Snapshot, tmpl *sql.SelectStmt, exemplar []store.Value, par int) (*PreparedQuery, error) {
	t, err := plan.CompileTemplate(sn, tmpl, exemplar, par)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{Tmpl: t}, nil
}

// BindPinned produces a runnable plan for one constant vector whose
// kinds and snapshot the caller has already validated (see
// Template.BindPinned).
func (pq *PreparedQuery) BindPinned(sn *store.Snapshot, params []store.Value, par int) (*plan.Plan, bool, error) {
	return pq.Tmpl.BindPinned(sn, params, par)
}
