// Package combinator is a generic list-of-successes parser-combinator
// library over arbitrary token slices. It exists because the target
// system needs an ambiguity-preserving top-down parsing substrate (a
// LIFER-style semantic grammar engine) and Go offers none: every parser
// returns the *set* of parses at each position, so genuinely ambiguous
// questions produce multiple interpretations that the ranking stage can
// arbitrate.
//
// Conventions:
//   - A Parser[T, R] reads tokens of type T and produces values of type R.
//   - Parsers never mutate the token slice.
//   - Results are returned in discovery order; Alt tries alternatives
//     left to right, so earlier grammar rules rank earlier on ties.
//   - Many/Many1 require their element parser to consume at least one
//     token on success; this is asserted at runtime to fail fast on
//     grammars that would otherwise loop forever.
//   - A constructed Parser is immutable: running it writes nothing it
//     closes over, so one parser tree may be built once and run from
//     any number of goroutines at once. Ref targets are assigned once,
//     before the first parse. Functions handed to Map, Bind, Filter and
//     the Seq family must keep to the same rule.
package combinator

// Result is a single successful parse: the semantic value plus the
// position of the next unconsumed token.
type Result[R any] struct {
	Value R
	Next  int
}

// Parser is a function from (tokens, position) to all parses starting
// at that position. An empty slice means failure.
type Parser[T, R any] func(toks []T, pos int) []Result[R]

// Satisfy matches a single token for which pred returns true, yielding
// the token itself.
func Satisfy[T any](pred func(T) bool) Parser[T, T] {
	return func(toks []T, pos int) []Result[T] {
		if pos < len(toks) && pred(toks[pos]) {
			return []Result[T]{{Value: toks[pos], Next: pos + 1}}
		}
		return nil
	}
}

// Any matches any single token.
func Any[T any]() Parser[T, T] {
	return Satisfy(func(T) bool { return true })
}

// Eq matches exactly the given token (for comparable token types).
func Eq[T comparable](want T) Parser[T, T] {
	return Satisfy(func(t T) bool { return t == want })
}

// Succeed consumes nothing and yields v.
func Succeed[T, R any](v R) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		return []Result[R]{{Value: v, Next: pos}}
	}
}

// Fail never matches.
func Fail[T, R any]() Parser[T, R] {
	return func(toks []T, pos int) []Result[R] { return nil }
}

// Map transforms the semantic value of every parse of p.
func Map[T, A, B any](p Parser[T, A], f func(A) B) Parser[T, B] {
	return func(toks []T, pos int) []Result[B] {
		rs := p(toks, pos)
		if rs == nil {
			return nil
		}
		out := make([]Result[B], len(rs))
		for i, r := range rs {
			out[i] = Result[B]{Value: f(r.Value), Next: r.Next}
		}
		return out
	}
}

// Bind sequences p with a parser computed from p's value (monadic bind).
func Bind[T, A, B any](p Parser[T, A], f func(A) Parser[T, B]) Parser[T, B] {
	return func(toks []T, pos int) []Result[B] {
		var out []Result[B]
		for _, r := range p(toks, pos) {
			out = append(out, f(r.Value)(toks, r.Next)...)
		}
		return out
	}
}

// Filter keeps only parses whose value satisfies keep.
func Filter[T, A any](p Parser[T, A], keep func(A) bool) Parser[T, A] {
	return func(toks []T, pos int) []Result[A] {
		var out []Result[A]
		for _, r := range p(toks, pos) {
			if keep(r.Value) {
				out = append(out, r)
			}
		}
		return out
	}
}

// Seq2 runs pa then pb, combining their values with f.
func Seq2[T, A, B, C any](pa Parser[T, A], pb Parser[T, B], f func(A, B) C) Parser[T, C] {
	return func(toks []T, pos int) []Result[C] {
		var out []Result[C]
		for _, ra := range pa(toks, pos) {
			for _, rb := range pb(toks, ra.Next) {
				out = append(out, Result[C]{Value: f(ra.Value, rb.Value), Next: rb.Next})
			}
		}
		return out
	}
}

// Seq3 runs three parsers in sequence.
func Seq3[T, A, B, C, D any](pa Parser[T, A], pb Parser[T, B], pc Parser[T, C], f func(A, B, C) D) Parser[T, D] {
	return Seq2(Seq2(pa, pb, func(a A, b B) func(C) D {
		return func(c C) D { return f(a, b, c) }
	}), pc, func(g func(C) D, c C) D { return g(c) })
}

// Seq4 runs four parsers in sequence.
func Seq4[T, A, B, C, D, E any](pa Parser[T, A], pb Parser[T, B], pc Parser[T, C], pd Parser[T, D], f func(A, B, C, D) E) Parser[T, E] {
	return Seq2(Seq3(pa, pb, pc, func(a A, b B, c C) func(D) E {
		return func(d D) E { return f(a, b, c, d) }
	}), pd, func(g func(D) E, d D) E { return g(d) })
}

// Then runs pa then pb, keeping only pb's value.
func Then[T, A, B any](pa Parser[T, A], pb Parser[T, B]) Parser[T, B] {
	return Seq2(pa, pb, func(_ A, b B) B { return b })
}

// Skip runs pa then pb, keeping only pa's value.
func Skip[T, A, B any](pa Parser[T, A], pb Parser[T, B]) Parser[T, A] {
	return Seq2(pa, pb, func(a A, _ B) A { return a })
}

// Alt tries each alternative and returns the union of their parses, in
// order. This is where ambiguity enters.
func Alt[T, R any](ps ...Parser[T, R]) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		var out []Result[R]
		for _, p := range ps {
			out = append(out, p(toks, pos)...)
		}
		return out
	}
}

// First tries alternatives in order and commits to the first that
// yields any parse (PEG-style ordered choice). Use where ambiguity is
// known to be spurious.
func First[T, R any](ps ...Parser[T, R]) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		for _, p := range ps {
			if rs := p(toks, pos); len(rs) > 0 {
				return rs
			}
		}
		return nil
	}
}

// Opt makes p optional, yielding def when p fails. When p succeeds,
// only p's parses are produced (no empty alternative), which keeps the
// ambiguity fan-out bounded; use OptAmbig to also keep the skip.
func Opt[T, R any](p Parser[T, R], def R) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		if rs := p(toks, pos); len(rs) > 0 {
			return rs
		}
		return []Result[R]{{Value: def, Next: pos}}
	}
}

// OptAmbig makes p optional and keeps both the parse and the skip, so
// downstream alternatives can still consume the tokens p would take.
func OptAmbig[T, R any](p Parser[T, R], def R) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		rs := p(toks, pos)
		return append(rs, Result[R]{Value: def, Next: pos})
	}
}

// maxRepeat bounds Many against pathological inputs.
const maxRepeat = 10000

// Many matches zero or more occurrences of p, greedily, returning the
// longest run only (deterministic repetition). p must consume input.
func Many[T, R any](p Parser[T, R]) Parser[T, []R] {
	return func(toks []T, pos int) []Result[[]R] {
		var acc []R
		cur := pos
		for i := 0; i < maxRepeat; i++ {
			rs := p(toks, cur)
			if len(rs) == 0 {
				break
			}
			// Deterministic repetition: take the longest single parse.
			best := rs[0]
			for _, r := range rs[1:] {
				if r.Next > best.Next {
					best = r
				}
			}
			if best.Next == cur {
				panic("combinator: Many element parser consumed no input")
			}
			acc = append(acc, best.Value)
			cur = best.Next
		}
		return []Result[[]R]{{Value: acc, Next: cur}}
	}
}

// Many1 matches one or more occurrences of p.
func Many1[T, R any](p Parser[T, R]) Parser[T, []R] {
	m := Many(p)
	return func(toks []T, pos int) []Result[[]R] {
		rs := m(toks, pos)
		var out []Result[[]R]
		for _, r := range rs {
			if len(r.Value) > 0 {
				out = append(out, r)
			}
		}
		return out
	}
}

// SepBy1 matches one or more p separated by sep.
func SepBy1[T, R, S any](p Parser[T, R], sep Parser[T, S]) Parser[T, []R] {
	rest := Many(Then(sep, p))
	return Seq2(p, rest, func(first R, more []R) []R {
		return append([]R{first}, more...)
	})
}

// Ref returns a parser that forwards to *p at call time, enabling
// recursive grammars: assign the real parser to *p once, after
// constructing the mutually recursive rules and before the first parse.
func Ref[T, R any](p *Parser[T, R]) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		return (*p)(toks, pos)
	}
}

// Longest keeps only the parses that consumed the most tokens.
func Longest[T, R any](p Parser[T, R]) Parser[T, R] {
	return func(toks []T, pos int) []Result[R] {
		rs := p(toks, pos)
		if len(rs) <= 1 {
			return rs
		}
		max := rs[0].Next
		for _, r := range rs[1:] {
			if r.Next > max {
				max = r.Next
			}
		}
		var out []Result[R]
		for _, r := range rs {
			if r.Next == max {
				out = append(out, r)
			}
		}
		return out
	}
}

// End succeeds only at end of input.
func End[T any]() Parser[T, struct{}] {
	return func(toks []T, pos int) []Result[struct{}] {
		if pos == len(toks) {
			return []Result[struct{}]{{Next: pos}}
		}
		return nil
	}
}

// ParseAll runs p against toks and returns the semantic values of the
// parses that consumed the entire input, in discovery order.
func ParseAll[T, R any](p Parser[T, R], toks []T) []R {
	var out []R
	for _, r := range p(toks, 0) {
		if r.Next == len(toks) {
			out = append(out, r.Value)
		}
	}
	return out
}

// ParsePrefix runs p against toks and returns all parses, complete or
// not, longest first is NOT guaranteed; use Longest to filter.
func ParsePrefix[T, R any](p Parser[T, R], toks []T) []Result[R] {
	return p(toks, 0)
}
