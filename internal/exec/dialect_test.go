package exec_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestOneDialect pins that the planned executor runs the SQL iql.ToSQL
// writes and no other: each statement below holds one form ToSQL never
// writes, and fails with ErrUnsupported, not a panic, at parallelism 1
// and 4, compiled and prepared (plannedUnsupported), while the
// reference executor answers it with the count pinned here. An operator
// is refused before its operands compile, so the OR whose scalar
// subquery returns 40 rows — which the reference never evaluates, the
// OR's left side being true — fails as unsupported, not with the
// subquery's error.
func TestOneDialect(t *testing.T) {
	sn := rowPathDB(t, rowPathLayouts[1]).Snapshot() // g travels in code space
	for _, c := range []struct {
		form, sql string
		want      int64
	}{
		{"OR", "SELECT COUNT(*) FROM t WHERE id < 10 OR n = 4", 208},
		{"AND inside one expression", "SELECT COUNT(*) FROM t WHERE NOT (id < 600 AND n = 1)", 1000},
		{"+", "SELECT COUNT(*) FROM t WHERE id + 1 > 600", 600},
		{"-", "SELECT COUNT(*) FROM t WHERE id - 1 > 600", 598},
		{"*", "SELECT COUNT(*) FROM t WHERE id * 2 > 600", 899},
		{"/", "SELECT COUNT(*) FROM t WHERE id / 2 > 300", 599},
		{"unary minus over a column", "SELECT COUNT(*) FROM t WHERE -id < -600", 599},
		{"IS NULL", "SELECT COUNT(*) FROM t WHERE n IS NULL", 200},
		{"IS NOT NULL", "SELECT COUNT(*) FROM t WHERE v IS NOT NULL", 1050},
		{"EXISTS", "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM u WHERE k > 3)", 1200},
		{"BETWEEN with a column bound", "SELECT COUNT(*) FROM t WHERE id BETWEEN n AND 600", 500},
		{"BETWEEN over text", "SELECT COUNT(*) FROM t WHERE g BETWEEN 'g01' AND 'g03'", 720},
		{"two columns compared", "SELECT COUNT(*) FROM t WHERE id > n", 996},
		{"a BOOL comparison", "SELECT COUNT(*) FROM t WHERE (id < 600) = TRUE", 600},
		{"IN over a BOOL", "SELECT COUNT(*) FROM t WHERE (id < 600) IN (TRUE)", 600},
		{"no equality join", "SELECT COUNT(*) FROM t, u WHERE t.id < 5", 200},
		{"OR over a 40-row scalar subquery", "SELECT COUNT(*) FROM t WHERE id >= 0 OR k > (SELECT k FROM u)", 1200},
	} {
		stmt := sql.MustParse(c.sql)
		plannedUnsupported(t, sn, stmt, 1, 4)
		ref, err := exec.ReferenceQueryAt(sn, stmt)
		if err != nil {
			t.Fatalf("%s: reference: %v\nsql: %s", c.form, err, c.sql)
		}
		if got := ref.Rows[0][0].Int64(); got != c.want {
			t.Errorf("%s: reference counts %d, want %d\nsql: %s", c.form, got, c.want, c.sql)
		}
	}
}

// plannedUnsupported fails unless the planned executor declines stmt
// with ErrUnsupported at every degree of pars, both ways a statement
// reaches it: compiled and run, and parameterized, prepared
// (PrepareTemplateAt), bound and run. A panic fails it too — one in a
// worker takes the test binary down.
func plannedUnsupported(t *testing.T, sn *store.Snapshot, stmt *sql.SelectStmt, pars ...int) {
	t.Helper()
	tmpl, params := sql.Parameterize(stmt)
	prepared := func(par int) error {
		pq, err := exec.PrepareTemplateAt(sn, tmpl, params, par)
		if err != nil {
			return err
		}
		p, _, err := pq.BindPinned(sn, params, par)
		if err != nil {
			return err
		}
		_, err = exec.Run(context.Background(), sn, p, exec.RunOpts{Params: params})
		return err
	}
	for _, par := range pars {
		if err := noPanic(func() error { _, err := compileRun(sn, stmt, par, exec.RunOpts{}); return err }); !errors.Is(err, exec.ErrUnsupported) {
			t.Errorf("par=%d: %v, want ErrUnsupported\nsql: %s", par, err, stmt)
		}
		if err := noPanic(func() error { return prepared(par) }); !errors.Is(err, exec.ErrUnsupported) {
			t.Errorf("par=%d, prepared: %v, want ErrUnsupported\nsql: %s", par, err, tmpl)
		}
	}
}

// noPanic runs f, turning a panic into an error.
func noPanic(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}
