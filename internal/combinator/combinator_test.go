package combinator

import (
	"strings"
	"testing"
	"testing/quick"
)

func lit(s string) Parser[string, string] {
	return Satisfy(func(t string) bool { return t == s })
}

func toks(s string) []string { return strings.Fields(s) }

func TestSatisfyAndEq(t *testing.T) {
	p := lit("show")
	rs := p(toks("show students"), 0)
	if len(rs) != 1 || rs[0].Value != "show" || rs[0].Next != 1 {
		t.Fatalf("got %v", rs)
	}
	if rs := p(toks("list students"), 0); len(rs) != 0 {
		t.Fatalf("expected failure, got %v", rs)
	}
	if rs := p(nil, 0); len(rs) != 0 {
		t.Fatalf("expected failure at EOF, got %v", rs)
	}
}

func TestMap(t *testing.T) {
	p := Map(lit("five"), func(string) int { return 5 })
	rs := p(toks("five"), 0)
	if len(rs) != 1 || rs[0].Value != 5 {
		t.Fatalf("got %v", rs)
	}
}

func TestSeq2(t *testing.T) {
	p := Seq2(lit("how"), lit("many"), func(a, b string) string { return a + "-" + b })
	rs := p(toks("how many students"), 0)
	if len(rs) != 1 || rs[0].Value != "how-many" || rs[0].Next != 2 {
		t.Fatalf("got %v", rs)
	}
	if rs := p(toks("how much"), 0); len(rs) != 0 {
		t.Fatalf("partial match should fail, got %v", rs)
	}
}

func TestSeq3Seq4(t *testing.T) {
	p3 := Seq3(lit("a"), lit("b"), lit("c"), func(a, b, c string) string { return a + b + c })
	if rs := p3(toks("a b c"), 0); len(rs) != 1 || rs[0].Value != "abc" {
		t.Fatalf("Seq3 got %v", rs)
	}
	p4 := Seq4(lit("a"), lit("b"), lit("c"), lit("d"), func(a, b, c, d string) string { return a + b + c + d })
	if rs := p4(toks("a b c d"), 0); len(rs) != 1 || rs[0].Value != "abcd" || rs[0].Next != 4 {
		t.Fatalf("Seq4 got %v", rs)
	}
}

func TestThenSkip(t *testing.T) {
	p := Then(lit("the"), lit("students"))
	if rs := p(toks("the students"), 0); len(rs) != 1 || rs[0].Value != "students" {
		t.Fatalf("Then got %v", rs)
	}
	q := Skip(lit("students"), lit("please"))
	if rs := q(toks("students please"), 0); len(rs) != 1 || rs[0].Value != "students" || rs[0].Next != 2 {
		t.Fatalf("Skip got %v", rs)
	}
}

func TestAltKeepsAllParses(t *testing.T) {
	// Ambiguous: "count" is both a verb and a noun here.
	verb := Map(lit("count"), func(string) string { return "VERB" })
	noun := Map(lit("count"), func(string) string { return "NOUN" })
	p := Alt(verb, noun)
	rs := p(toks("count"), 0)
	if len(rs) != 2 {
		t.Fatalf("expected 2 parses, got %v", rs)
	}
	if rs[0].Value != "VERB" || rs[1].Value != "NOUN" {
		t.Fatalf("order not preserved: %v", rs)
	}
}

func TestOpt(t *testing.T) {
	p := Opt(lit("the"), "")
	rs := p(toks("the cat"), 0)
	if len(rs) != 1 || rs[0].Value != "the" || rs[0].Next != 1 {
		t.Fatalf("got %v", rs)
	}
	rs = p(toks("cat"), 0)
	if len(rs) != 1 || rs[0].Value != "" || rs[0].Next != 0 {
		t.Fatalf("got %v", rs)
	}
}

func TestManyGreedy(t *testing.T) {
	p := Many(lit("very"))
	rs := p(toks("very very very tall"), 0)
	if len(rs) != 1 || len(rs[0].Value) != 3 || rs[0].Next != 3 {
		t.Fatalf("got %v", rs)
	}
	// Zero occurrences still succeed.
	rs = p(toks("tall"), 0)
	if len(rs) != 1 || len(rs[0].Value) != 0 || rs[0].Next != 0 {
		t.Fatalf("got %v", rs)
	}
}

func TestMany1(t *testing.T) {
	p := Many1(lit("very"))
	if rs := p(toks("tall"), 0); len(rs) != 0 {
		t.Fatalf("Many1 matched zero occurrences: %v", rs)
	}
	if rs := p(toks("very tall"), 0); len(rs) != 1 || len(rs[0].Value) != 1 {
		t.Fatalf("got %v", rs)
	}
}

func TestManyPanicsOnEmptyElement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-consuming element parser")
		}
	}()
	p := Many(Succeed[string]("x"))
	p(toks("a b"), 0)
}

func TestSepBy1(t *testing.T) {
	word := Satisfy(func(s string) bool { return s != "and" })
	p := SepBy1(word, lit("and"))
	rs := p(toks("physics and math and chemistry"), 0)
	if len(rs) == 0 {
		t.Fatal("no parse")
	}
	found := false
	for _, r := range rs {
		if len(r.Value) == 3 && r.Next == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no full 3-item parse in %v", rs)
	}
}

func TestRecursionWithRef(t *testing.T) {
	// expr := "x" | "(" expr ")"
	var expr Parser[string, int]
	expr = Alt(
		Map(lit("x"), func(string) int { return 0 }),
		Seq3(lit("("), Ref(&expr), lit(")"), func(_ string, depth int, _ string) int { return depth + 1 }),
	)
	rs := ParseAll(expr, toks("( ( x ) )"))
	if len(rs) != 1 || rs[0] != 2 {
		t.Fatalf("got %v", rs)
	}
}

func TestParseAll(t *testing.T) {
	if rs := ParseAll(lit("hello"), toks("hello")); len(rs) != 1 {
		t.Fatalf("got %v", rs)
	}
	if rs := ParseAll(Map(lit("hello"), func(s string) string { return s }), toks("hello world")); len(rs) != 0 {
		t.Fatalf("incomplete parse accepted: %v", rs)
	}
}

func TestBind(t *testing.T) {
	// Parse a count word, then exactly that many "x" tokens.
	countWord := Map(Satisfy(func(s string) bool { return s == "2" || s == "3" }),
		func(s string) int {
			if s == "2" {
				return 2
			}
			return 3
		})
	p := Bind(countWord, func(n int) Parser[string, int] {
		q := Succeed[string](0)
		for i := 0; i < n; i++ {
			q = Then(lit("x"), q)
		}
		return Map(q, func(int) int { return n })
	})
	if rs := ParseAll(p, toks("2 x x")); len(rs) != 1 || rs[0] != 2 {
		t.Fatalf("got %v", rs)
	}
	if rs := ParseAll(p, toks("3 x x")); len(rs) != 0 {
		t.Fatalf("got %v", rs)
	}
}

func TestFilter(t *testing.T) {
	p := Filter(Satisfy(func(string) bool { return true }), func(s string) bool { return len(s) > 3 })
	if rs := p(toks("hello"), 0); len(rs) != 1 {
		t.Fatalf("got %v", rs)
	}
	if rs := p(toks("hi"), 0); len(rs) != 0 {
		t.Fatalf("got %v", rs)
	}
}

func TestFailAndSucceed(t *testing.T) {
	if rs := Fail[string, int]()(toks("a"), 0); len(rs) != 0 {
		t.Fatal("Fail matched")
	}
	if rs := Succeed[string](42)(toks("a"), 0); len(rs) != 1 || rs[0].Value != 42 || rs[0].Next != 0 {
		t.Fatalf("got %v", rs)
	}
}

// Property: for any input, Alt(p, q) yields exactly the parses of p
// followed by the parses of q.
func TestAltUnionProperty(t *testing.T) {
	f := func(words []string) bool {
		if len(words) > 8 {
			words = words[:8]
		}
		p := Satisfy(func(s string) bool { return len(s)%2 == 0 })
		q := Satisfy(func(s string) bool { return len(s) > 2 })
		alt := Alt(p, q)(words, 0)
		want := append(p(words, 0), q(words, 0)...)
		if len(alt) != len(want) {
			return false
		}
		for i := range alt {
			if alt[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Many never fails and never over-consumes.
func TestManyTotalProperty(t *testing.T) {
	f := func(words []string) bool {
		if len(words) > 16 {
			words = words[:16]
		}
		p := Many(Satisfy(func(s string) bool { return strings.HasPrefix(s, "a") }))
		rs := p(words, 0)
		return len(rs) == 1 && rs[0].Next >= 0 && rs[0].Next <= len(words)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDeepSeq(b *testing.B) {
	p := Seq4(lit("a"), lit("b"), lit("c"), lit("d"),
		func(a, bb, c, d string) string { return a + bb + c + d })
	input := toks("a b c d")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p(input, 0)
	}
}
