package core_test

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/store"
)

// readingTwins returns an engine with the reading cache and one
// without it (PlanCacheSize 0), both over db and neither with an answer
// cache, so that every ask of the first goes through the reading cache.
func readingTwins(db *store.DB) (warm, ref *core.Engine) {
	opts := core.DefaultOptions()
	opts.AnswerCacheSize = 0
	warm = core.NewEngine(db, opts)
	opts.PlanCacheSize = 0
	return warm, core.NewEngine(db, opts)
}

// sameAnswer reports how a reading-cache answer differs from the
// parsed one, "" when it does not: the error, the ranked readings
// (queries and scores), the SQL, the paraphrase, the response and the
// rows.
func sameAnswer(got, want *core.Answer, errGot, errWant error) string {
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		return fmt.Sprintf("error %v, want %v", errGot, errWant)
	}
	if got == nil || want == nil {
		return ""
	}
	switch {
	case !reflect.DeepEqual(got.Ranked, want.Ranked):
		return fmt.Sprintf("ranked %v, want %v", readings(got), readings(want))
	case (got.SQL == nil) != (want.SQL == nil):
		return fmt.Sprintf("SQL %v, want %v", got.SQL != nil, want.SQL != nil)
	case got.SQL != nil && got.SQL.String() != want.SQL.String():
		return fmt.Sprintf("SQL %s, want %s", got.SQL, want.SQL)
	case got.Paraphrase != want.Paraphrase:
		return fmt.Sprintf("paraphrase %q, want %q", got.Paraphrase, want.Paraphrase)
	case got.Response != want.Response:
		return fmt.Sprintf("response %q, want %q", got.Response, want.Response)
	case exec.FormatResult(got.Result) != exec.FormatResult(want.Result):
		return "rows differ"
	}
	return ""
}

func readings(a *core.Answer) []string {
	var out []string
	for _, s := range a.Ranked {
		out = append(out, s.Explain())
	}
	return out
}

var numberText = regexp.MustCompile(`\d+(\.\d+)?`)

// withNumbers rewrites every number in q through f, which is given the
// number and its index among q's numbers.
func withNumbers(q string, f func(v float64, i int) float64) string {
	i := 0
	return numberText.ReplaceAllStringFunc(q, func(s string) string {
		v, _ := strconv.ParseFloat(s, 64)
		i++
		return strconv.FormatFloat(f(v, i-1), 'f', -1, 64)
	})
}

// numberVariants are q's question with its numbers moved: shifted,
// scaled, made fractional, and all made equal. The first ask of a
// shape stores it; these ask it again with other numbers.
func numberVariants(q string) []string {
	if !numberText.MatchString(q) {
		return nil
	}
	return []string{
		withNumbers(q, func(v float64, _ int) float64 { return v + 1 }),
		withNumbers(q, func(v float64, i int) float64 { return 2*v + float64(i) }),
		withNumbers(q, func(v float64, i int) float64 { return v + 0.25 + float64(i) }),
		withNumbers(q, func(float64, int) float64 { return 4 }),
	}
}

// TestReadingCacheMatchesParse: an engine reading through the reading
// cache answers exactly as one that parses every question — the same
// ranked readings with the same scores, SQL, paraphrase, response and
// rows — both on the ask that stores a shape and on later asks of the
// shape with other numbers. It runs the gold, typo and dialogue
// corpora with the gold questions' numbers moved, a sweep of the
// question benchmark's ask_fresh and ask_scan shapes, and the shapes
// whose numbers the parser transforms or that repeat a number.
func TestReadingCacheMatchesParse(t *testing.T) {
	type twin struct{ warm, ref *core.Engine }
	newTwin := func(db *store.DB) twin {
		warm, ref := readingTwins(db)
		return twin{warm, ref}
	}
	twins := map[string]twin{"telemetry": newTwin(dataset.Telemetry(4096))}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		twins[name] = newTwin(db)
	}

	hits := 0
	check := func(domain, q string) (readingCached bool) {
		t.Helper()
		tw := twins[domain]
		got, errGot := tw.warm.Ask(context.Background(), q, 0)
		want, errWant := tw.ref.Ask(context.Background(), q, 0)
		if d := sameAnswer(got, want, errGot, errWant); d != "" {
			t.Errorf("%s: %q: %s", domain, q, d)
		}
		if errWant == nil && want.ReadingCached {
			t.Errorf("%s: %q: an engine without the reading cache reports a hit", domain, q)
		}
		if errGot == nil && got.ReadingCached {
			hits++
			return true
		}
		return false
	}

	cases := append(bench.AllCases(), bench.TypoCases(bench.AllCases(), 1)...)
	for _, cs := range cases {
		check(cs.Domain, cs.Question)
		for _, v := range numberVariants(cs.Question) {
			check(cs.Domain, v)
		}
	}

	for k := 0; k < 40; k++ {
		gpa := strconv.FormatFloat(1.9+float64(k)*0.037, 'f', -1, 64)
		salary := strconv.Itoa(45000 + 25*k)
		dept := []string{"Computer Science", "Mathematics", "Physics", "History", "Biology", "Economics"}[k%6]
		for _, q := range []string{
			"students with gpa over " + gpa,
			"instructors with salary between " + salary + " and " + strconv.Itoa(50000+250*k),
			"students in " + dept + " with gpa over " + gpa,
			"names of students in " + dept + " with gpa over " + gpa,
			"show the name and salary of instructors with salary over " + salary,
			"average salary of instructors with salary over " + salary + " per department",
		} {
			check("university", q)
		}
		latency, lo := strconv.Itoa(1000+100*k), 1_700_000_000+3*k
		for _, q := range []string{
			"number of events with latency over " + latency,
			fmt.Sprintf("number of events per level with ts between %d and %d", lo, lo+128),
			fmt.Sprintf("average latency of events per region with ts between %d and %d", lo, lo+64),
			"number of events per service with latency over " + latency,
			fmt.Sprintf("average latency of events with ts between %d and %d", lo, lo+32),
			fmt.Sprintf("number of events with latency over %s and status over %d", latency, []int{100, 250, 450}[k%3]),
		} {
			check("telemetry", q)
		}
	}

	// Shapes whose numbers the parser transforms, or whose numbers
	// repeat, on fresh twins: which of them a hit may serve is pinned
	// too, so a shape that stops binding shows here.
	for _, name := range []string{"university", "geo"} {
		twins[name] = newTwin(twins[name].ref.DB)
	}
	for _, c := range []struct {
		domain, q string
		hit       bool
	}{
		{"university", "top 5 instructors by salary", false}, // LIMIT int(n): not bindable
		{"university", "top 7 instructors by salary", false},
		{"university", "departments with more than 2 enrollments", false},
		{"university", "departments with more than 3 enrollments", true}, // HAVING binds
		{"geo", "countries with population over 1.5 million", false},     // scaled: not bindable
		{"geo", "countries with population over 2.5 million", false},
		{"university", "instructors with salary between 5 and 5", false}, // repeated numbers parse
		{"university", "instructors with salary between 5 and 6", false},
		{"university", "instructors with salary between 6 and 7", true},
		{"university", "instructors with salary between 6 and 6", false},
		{"university", "students with gpa over twenty five", false}, // spelled: part of the shape
		{"university", "students with gpa over twenty five", true},
		{"university", "students with gpa over 25", false},
		{"university", "students with gpa over 26", true},
	} {
		if hit := check(c.domain, c.q); hit != c.hit {
			t.Errorf("%s: %q: reading-cache hit %v, want %v", c.domain, c.q, hit, c.hit)
		}
	}
	for _, dc := range bench.DialogueCorpus() {
		tw := twins[dc.Domain]
		warm, ref := tw.warm.NewConversation(), tw.ref.NewConversation()
		for i, turn := range dc.Turns {
			got, fuGot, errGot := warm.Ask(context.Background(), turn, 0)
			want, fuWant, errWant := ref.Ask(context.Background(), turn, 0)
			if d := sameAnswer(got, want, errGot, errWant); d != "" || fuGot != fuWant {
				t.Errorf("%s turn %d %q: follow-up %v/%v %s", dc.ID, i+1, turn, fuGot, fuWant, d)
			}
		}
	}

	t.Logf("%d asks served from the reading cache", hits)
	if hits < 500 {
		t.Errorf("only %d asks were served from the reading cache: the comparison is not exercising it", hits)
	}
}

// TestReadingCacheMissThenHit: the first ask of a shape misses and
// parses; the shape asked with another number is served from the
// cache, flagged on the answer and counted by ReadingCacheStats as a
// hit, not a parse.
func TestReadingCacheMissThenHit(t *testing.T) {
	e, _ := readingTwins(dataset.University(1))
	first, err := e.Ask(context.Background(), "students with gpa over 3.5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.ReadingCached || first.Timings.Parse == 0 {
		t.Errorf("first ask: reading_cached=%v parse=%v, want a miss that parsed", first.ReadingCached, first.Timings.Parse)
	}
	if h, m := e.ReadingCacheStats(); h != 0 || m != 1 {
		t.Errorf("after the miss: %d hits, %d misses, want 0 and 1", h, m)
	}
	second, err := e.Ask(context.Background(), "students with gpa over 3.7", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ReadingCached {
		t.Error("second ask: reading_cached=false, want a hit")
	}
	if h, m := e.ReadingCacheStats(); h != 1 || m != 1 {
		t.Errorf("after the hit: %d hits, %d misses, want 1 and 1", h, m)
	}
	if got, want := second.SQL.String(), "SELECT students.name FROM students WHERE (students.gpa > 3.7)"; got != want {
		t.Errorf("hit SQL %s, want %s", got, want)
	}
	if first.Query == second.Query {
		t.Error("the hit's query is the miss's: a hit must bind into a clone")
	}

	// A shape the cache holds but cannot bind (LIMIT takes int(n)) is
	// found and still parsed: a miss, not a hit.
	for _, q := range []string{"top 5 instructors by salary", "top 7 instructors by salary"} {
		ans, err := e.Ask(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.ReadingCached {
			t.Errorf("%q: reading_cached=true, want a parse", q)
		}
	}
	if h, m := e.ReadingCacheStats(); h != 1 || m != 3 {
		t.Errorf("after a shape that does not bind: %d hits, %d misses, want 1 and 3", h, m)
	}
}

// TestReadingCacheConcurrentUse: eight goroutines ask one engine the
// same shapes with different numbers, so they store, look up and bind
// the same entries at once (CI runs it under the race detector); every
// answer equals an engine's without the cache.
func TestReadingCacheConcurrentUse(t *testing.T) {
	db := dataset.University(1)
	warm, ref := readingTwins(db)
	shapes := []string{
		"students with gpa over %d.%d",
		"instructors with salary between 4%d00%d and 9%d00%d",
		"students in Physics with gpa over %d.%d",
		"departments with more than %d%d enrollments",
		"top %d%d instructors by salary",
	}
	question := func(g, i int) string {
		s := shapes[i%len(shapes)]
		a, b := g%4, i%10
		if s == shapes[1] {
			return fmt.Sprintf(s, a, b, a, b)
		}
		return fmt.Sprintf(s, a+1, b)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*40)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := question(g, i)
				got, err := warm.Ask(context.Background(), q, 0)
				want, errWant := ref.Ask(context.Background(), q, 0)
				if d := sameAnswer(got, want, err, errWant); d != "" {
					errs <- fmt.Sprintf("%q: %s", q, d)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if h, _ := warm.ReadingCacheStats(); h == 0 {
		t.Error("no ask was a reading-cache hit")
	}
}
