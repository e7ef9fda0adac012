package core_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
)

// TestOneAskPipeline pins the shape that makes the two entry points
// agree: every stage a question goes through has exactly one call site
// in core, so a hook on the ask path (a tracer span, a cache, a ledger
// line) is written once and a conversation turn cannot drift from a
// single-shot ask. A second call site of any of these is a second
// pipeline; if one is really wanted, this list changes deliberately.
// internal/dialog was that second pipeline and must not come back.
func TestOneAskPipeline(t *testing.T) {
	want := map[string]int{ // call suffix -> sites, whatever the receiver is spelled
		".ParsePrepared": 1, // the full-question reading
		".ParseUpdate":   1, // the fragment reading, over the same Prepared
		"iql.ToSQL":      1,
		".cache.lookup":  1,
		".cache.store":   1,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, f := range pkgs["core"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				name := types.ExprString(call.Fun)
				for suffix := range want {
					if strings.HasSuffix(name, suffix) {
						got[suffix] = append(got[suffix], fset.Position(call.Pos()).String())
					}
				}
			}
			return true
		})
	}
	for suffix, n := range want {
		if len(got[suffix]) != n {
			t.Errorf("%s is called at %d sites %v, want %d", suffix, len(got[suffix]), got[suffix], n)
		}
	}

	// No file of the repository (the benchmark module included) imports
	// the deleted package.
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != ".." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/dialog" {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConversationMatchesSingleShot: a complete question means the same
// thing asked inside a conversation as outside one. Over the gold corpus
// of all three domains and its one-typo variants, a fresh
// Conversation.Ask and Engine.Ask (on twin engines, so each runs the
// miss path) agree on the outcome — error text, corrections, chosen
// IQL, SQL and rows — and a repeat is served from the answer cache on
// both, before any parsing, with the conversation's context committed
// from the hit.
func TestConversationMatchesSingleShot(t *testing.T) {
	cases := bench.AllCases()
	cases = append(cases, bench.TypoCases(bench.AllCases(), 1)...)

	newEngine := func(domain string) *core.Engine {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		return core.NewEngine(db, core.DefaultOptions())
	}
	type twin struct{ single, conv *core.Engine }
	engines := map[string]twin{}
	for _, name := range dataset.Names() {
		engines[name] = twin{single: newEngine(name), conv: newEngine(name)}
	}

	answered := 0
	for _, cs := range cases {
		tw := engines[cs.Domain]
		conv := tw.conv.NewConversation()
		single, errS := tw.single.Ask(cs.Question)
		turn, followUp, errC := conv.Ask(cs.Question)

		if followUp {
			t.Errorf("%s: a fresh conversation reported a follow-up", cs.ID)
		}
		if fmt.Sprint(errS) != fmt.Sprint(errC) {
			t.Errorf("%s: Engine.Ask error %v, Conversation.Ask error %v", cs.ID, errS, errC)
			continue
		}
		if !reflect.DeepEqual(single.Corrections, turn.Corrections) {
			t.Errorf("%s: corrections %+v vs %+v", cs.ID, single.Corrections, turn.Corrections)
		}
		if errS != nil {
			if conv.Context() != nil {
				t.Errorf("%s: a failed first turn left a context", cs.ID)
			}
			continue
		}
		answered++
		// A typo variant that corrects to its original's tokens is a hit
		// on both engines alike.
		if single.Cached != turn.Cached {
			t.Errorf("%s: cached %v vs %v", cs.ID, single.Cached, turn.Cached)
		}
		if a, b := single.Query.String(), turn.Query.String(); a != b {
			t.Errorf("%s: IQL %s vs %s", cs.ID, a, b)
		}
		if a, b := single.SQL.String(), turn.SQL.String(); a != b {
			t.Errorf("%s: SQL %s vs %s", cs.ID, a, b)
		}
		if a, b := exec.FormatResult(single.Result), exec.FormatResult(turn.Result); a != b {
			t.Errorf("%s: rows differ:\n%s\nvs\n%s", cs.ID, a, b)
		}

		again, errS := tw.single.Ask(cs.Question)
		repeat, followUp, errC := conv.Ask(cs.Question)
		if errS != nil || errC != nil || followUp {
			t.Errorf("%s: repeat: %v / %v, followUp=%v", cs.ID, errS, errC, followUp)
			continue
		}
		for name, ans := range map[string]*core.Answer{"Engine.Ask": again, "Conversation.Ask": repeat} {
			if !ans.Cached || ans.Timings.Parse != 0 {
				t.Errorf("%s: repeated %s: cached=%v parse=%v, want a hit that parsed nothing",
					cs.ID, name, ans.Cached, ans.Timings.Parse)
			}
		}
		if conv.Context() != repeat.Query {
			t.Errorf("%s: a cached turn did not commit its query as the context", cs.ID)
		}
		if a, b := exec.FormatResult(single.Result), exec.FormatResult(repeat.Result); a != b {
			t.Errorf("%s: cached turn's rows differ from the miss's", cs.ID)
		}
	}
	if answered < len(cases)*3/4 {
		t.Errorf("only %d of %d corpus questions were answered: the comparison is not exercising the pipeline", answered, len(cases))
	}
}
