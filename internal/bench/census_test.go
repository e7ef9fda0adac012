package bench

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/iql"
	"repro/internal/keyword"
	"repro/internal/pattern"
	"repro/internal/semindex"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestExecutorCensus pins the premise of the planned executor's one
// expression path: every SQL statement the ledger runs plans and runs
// through exec.Compile and exec.Run without exec.ErrUnsupported. That
// is, for every ledger case, its gold SQL, the SQL of the engine's top
// three readings (goldRank's), under the default options, each T2
// ablation and each of T5's spelling distances, the keyword and pattern
// baselines' SQL, and each dialogue turn's. A front-end change that
// emits, say, a correlated subquery fails here, naming the case and the
// clause, rather than as unanswered lines in the ledger's diff.
func TestExecutorCensus(t *testing.T) {
	census := func(db *store.DB, id, what string, stmt *sql.SelectStmt) {
		t.Helper()
		sn := db.Snapshot()
		p, err := exec.Compile(sn, stmt, 1)
		if err == nil {
			_, err = exec.Run(context.Background(), sn, p, exec.RunOpts{})
		}
		if errors.Is(err, exec.ErrUnsupported) {
			t.Errorf("%s, %s: %v\nsql: %s", id, what, err, stmt)
		}
	}
	gold := func(db *store.DB, cs Case) {
		t.Helper()
		if cs.Gold != "" {
			census(db, cs.ID, "gold SQL", sql.MustParse(cs.Gold))
		}
	}
	readings := func(e *core.Engine, cases []Case, opts string) {
		t.Helper()
		for _, cs := range cases {
			ans, err := e.Interpret(cs.Question)
			if err != nil {
				continue
			}
			for k := 0; k < len(ans.Ranked) && k < 3; k++ {
				if stmt, err := iql.ToSQL(ans.Ranked[k].Query, e.DB.Schema); err == nil {
					census(e.DB, cs.ID, fmt.Sprintf("reading %d %s", k+1, opts), stmt)
				}
			}
		}
	}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases := WithParaphrases(Corpus(name))
		for _, cs := range cases {
			gold(db, cs)
		}
		readings(core.NewEngine(db, core.DefaultOptions()), cases, "(default options)")
		for _, v := range ablations {
			opts := core.DefaultOptions()
			v.off(&opts)
			readings(core.NewEngine(db, opts), Corpus(name), "("+v.name+")")
		}
		idx := semindex.Build(db, semindex.DefaultOptions())
		for _, sys := range []System{keyword.New(idx), pattern.New(idx)} {
			for _, cs := range Corpus(name) {
				if stmt, err := sys.Translate(cs.Question); err == nil {
					census(db, cs.ID, sys.Name()+" baseline", stmt)
				}
			}
		}
	}

	db, err := dataset.ByName("university", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range spellDists {
		opts := core.DefaultOptions()
		opts.SpellMaxDist = dist
		e := core.NewEngine(db, opts)
		for n := range 3 {
			cases := Corpus("university")
			if n > 0 {
				cases = TypoCases(cases, n)
			}
			readings(e, cases, fmt.Sprintf("(spelling distance %d, %d typos)", dist, n))
		}
	}

	for _, d := range readLedger(t).dialogue {
		db, err := dataset.ByName(d.Case.Domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		gold(db, Case{ID: d.Case.ID, Gold: d.Case.Gold})
		for _, turn := range d.Turns {
			if turn.SysSQL != "" {
				census(db, turn.Case.ID, "dialogue turn", sql.MustParse(turn.SysSQL))
			}
		}
	}
}
