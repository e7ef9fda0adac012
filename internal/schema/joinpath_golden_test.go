package schema_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/joinpath.golden from the current join search")

const joinGoldenPath = "testdata/joinpath.golden"

// TestJoinPathGolden pins JoinPath on every bundled schema for every
// ordered list of one to three distinct tables: the FROM list, the
// join conditions in order, or the error. Neighbour order in the
// breadth-first search decides between equally short paths, so any
// change to how the foreign-key graph is built shows here. Regenerate
// with `go test ./internal/schema -run TestJoinPathGolden -update`.
func TestJoinPathGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := db.Schema
		names := s.TableNames()
		var lists [][]string
		for _, a := range names {
			lists = append(lists, []string{a})
			for _, b := range names {
				if b == a {
					continue
				}
				lists = append(lists, []string{a, b})
				for _, c := range names {
					if c != a && c != b {
						lists = append(lists, []string{a, b, c})
					}
				}
			}
		}
		for _, l := range lists {
			fmt.Fprintf(&buf, "%s\t%s\t", name, strings.Join(l, ","))
			plan, err := s.JoinPath(l)
			if err != nil {
				fmt.Fprintf(&buf, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(&buf, "tables=%s conds=%v\n", strings.Join(plan.Tables, ","), plan.Conds)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(joinGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(joinGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := strings.Split(buf.String(), "\n")
		exp := strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				w = exp[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %q\n want %q", joinGoldenPath, i+1, g, w)
			}
		}
	}
}

// TestPathLengthAllocs bounds what scoring one join costs. The
// foreign-key graph is built once in schema.New; a search that rebuilt
// and re-sorted it per call (formatting every key it compares) would
// allocate several times this.
func TestPathLengthAllocs(t *testing.T) {
	s := dataset.UniversitySchema()
	tables := []string{"students", "departments"}
	if n := s.PathLength(tables); n != 1 {
		t.Fatalf("PathLength = %d, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.PathLength(tables) }); n > 16 {
		t.Errorf("PathLength allocates %.0f times per call, want <= 16", n)
	}
}
