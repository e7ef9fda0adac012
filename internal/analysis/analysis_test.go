package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests follow the analysistest convention: fixture
// packages live under testdata/src/<importpath>, and a trailing
// comment `// want "substring"` on a line asserts exactly one finding
// on that line whose message contains the substring (several wants on
// one line assert several findings). Lines without a want comment
// must produce no finding. Fixtures model engine types (vbatch, Scan,
// ...) locally — the analyzers match types by package
// and type name precisely so the contracts are testable without
// importing the engine.

var (
	loaderOnce sync.Once
	testLoader *Loader
)

// loadTestPkg loads one fixture package through a loader shared by
// all tests, so the standard library is source-typechecked once.
func loadTestPkg(t *testing.T, path string) (*Package, *Loader) {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			panic(err)
		}
		testLoader = NewLoader(Root{Prefix: "", Dir: root})
	})
	dir := filepath.Join(testLoader.Roots[0].Dir, filepath.FromSlash(path))
	pkg, err := testLoader.Load(path, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return pkg, testLoader
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

func collectWants(pkg *Package, l *Loader) []*want {
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					out = append(out, &want{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return out
}

// checkAnalyzer runs analyzers over the fixture package and matches
// every finding against the fixture's want comments, both ways.
func checkAnalyzer(t *testing.T, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, l := loadTestPkg(t, pkgPath)
	diags := Run(pkg, l.Fset, analyzers)
	wants := collectWants(pkg, l)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding containing %q", filepath.Base(w.file), w.line, w.substr)
		}
	}
}

func TestBatchRetain(t *testing.T) { checkAnalyzer(t, "batchretain", BatchRetain) }
func TestAtomicField(t *testing.T) { checkAnalyzer(t, "atomicfield", AtomicField) }

func TestDetGen(t *testing.T) {
	checkAnalyzer(t, "detgen/dataset", DetGen)
	checkAnalyzer(t, "detgen/bench", DetGen)
}

func TestCtxFirst(t *testing.T) {
	checkAnalyzer(t, "ctxfirst/serve", CtxFirst)
	checkAnalyzer(t, "ctxfirst/other", CtxFirst)
}

// TestSuppression exercises the //nlivet:ignore path: well-formed
// directives (same line or the line above) silence a finding;
// malformed ones — bare, unknown analyzer, missing reason — are
// findings themselves and suppress nothing.
func TestSuppression(t *testing.T) {
	pkg, l := loadTestPkg(t, "suppress")
	diags := Run(pkg, l.Fset, Suite())

	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	// Five plain reads of an atomic field in the fixture: two
	// suppressed by valid directives, three surviving because their
	// directives are malformed. Each malformed directive is a "nlivet"
	// finding.
	if byAnalyzer["atomicfield"] != 3 || byAnalyzer["nlivet"] != 3 || len(diags) != 6 {
		for _, d := range diags {
			t.Logf("  %s", d)
		}
		t.Fatalf("got %d atomicfield + %d nlivet findings (want 3 + 3)", byAnalyzer["atomicfield"], byAnalyzer["nlivet"])
	}
	for _, substr := range []string{
		"needs an analyzer name and a reason",
		`unknown analyzer "nosuchcheck"`,
		"needs a non-empty reason",
	} {
		found := false
		for _, d := range diags {
			if d.Analyzer == "nlivet" && strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no nlivet finding containing %q", substr)
		}
	}
}
