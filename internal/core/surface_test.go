package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// The one way to ask, by signature: a context, the question and an
// execution degree, on both types.
var (
	_ func(*Engine, context.Context, string, int) (*Answer, error)             = (*Engine).Ask
	_ func(*Conversation, context.Context, string, int) (*Answer, bool, error) = (*Conversation).Ask
)

// TestExportedSurface pins the methods of Engine and Conversation so
// the ways to ask do not grow back one contract at a time: one Ask per
// type, returning the read-only answer the server encodes, plus
// Interpret and Translate, which stop before execution. AskCtx, the one
// entry that hands out an owning copy, is the only caller of owned and
// leaves this list when benchmark/ stops compiling against the name.
func TestExportedSurface(t *testing.T) {
	want := map[string][]string{
		"Engine": {
			"AnswerCacheStats", "Ask", "AskCtx", "Interpret", "Name", "NewConversation",
			"Options", "PlanCacheStats", "ReadingCacheStats", "SegmentStats", "Translate",
		},
		"Conversation": {"Ask", "Context", "Reset"},
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	ownedCallers := map[string]int{}
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "owned" {
						ownedCallers[fn.Name.Name]++
					}
				}
				return true
			})
			if fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && want[id.Name] != nil {
				got[id.Name] = append(got[id.Name], fn.Name.Name)
			}
		}
	}
	for typ, methods := range want {
		slices.Sort(got[typ])
		if !slices.Equal(got[typ], methods) {
			t.Errorf("%s methods = %v (%d), want %v", typ, got[typ], len(got[typ]), methods)
		}
	}
	if len(ownedCallers) != 1 || ownedCallers["AskCtx"] != 1 {
		t.Errorf("owned is called from %v, want once, from AskCtx alone", ownedCallers)
	}
}
