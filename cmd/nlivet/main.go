// Command nlivet is the multichecker for the engine's custom
// analyzers (internal/analysis): batchretain, atomicfield,
// skipadvisory, detgen and ctxfirst. It loads every non-test package of the
// module, runs the suite, prints findings as file:line:col messages
// and exits non-zero when any survive their //nlivet:ignore
// directives.
//
// Usage:
//
//	go run ./cmd/nlivet ./...
//	go run ./cmd/nlivet ./internal/plan ./internal/store
//
// The checker is self-hosting on the standard library: packages are
// typechecked with go/types against a source importer, so it needs no
// golang.org/x/tools (environments without the module cache can still
// run it — the reason it is a standalone binary rather than a `go vet
// -vettool` unitchecker, which requires x/tools' driver protocol).
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nlivet:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	modRoot, modPath, err := findModule()
	if err != nil {
		return err
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := expandPatterns(modRoot, args)
	if err != nil {
		return err
	}

	loader := analysis.NewLoader(analysis.Root{Prefix: modPath, Dir: modRoot})
	suite := analysis.Suite()
	findings := 0
	for _, dir := range dirs {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(importPath, dir)
		if err != nil {
			return err
		}
		for _, d := range analysis.Run(pkg, loader.Fset, suite) {
			d.Pos.Filename = relativize(modRoot, d.Pos.Filename)
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Printf("nlivet: %d finding(s)\n", findings)
		os.Exit(1)
	}
	return nil
}

func relativize(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// findModule walks upward from the working directory to go.mod and
// returns the module root directory and module path.
func findModule() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if _, err := os.Stat(gm); err == nil {
			mp, err := modulePath(gm)
			if err != nil {
				return "", "", err
			}
			return dir, mp, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if mp, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(mp), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// expandPatterns resolves package patterns (./..., ./dir, dir) into
// the set of module directories containing non-test Go files,
// skipping testdata, vendor and hidden directories.
func expandPatterns(modRoot string, patterns []string) ([]string, error) {
	set := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." || pat == "" {
			pat = modRoot
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(modRoot, pat)
		}
		if !recursive {
			if hasNonTestGo(pat) {
				set[pat] = true
			}
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasNonTestGo(p) {
				set[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasNonTestGo(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
