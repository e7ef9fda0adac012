// Package grammar is the English question grammar of the interface: a
// LIFER-style semantic grammar built on the parser-combinator substrate
// (internal/combinator) over tokens annotated by the semantic index
// (internal/semindex). Parsing a question yields zero or more logical
// query candidates (internal/iql) with match scores; genuine ambiguity
// (a word naming several columns, a superlative over several numeric
// attributes) yields several candidates for the interpreter to rank.
//
// The grammar is organized into rule groups that can be enabled
// incrementally, reproducing the coverage-growth experiment (F3) and
// the era-accurate behaviour that anything outside the grammar is
// rejected rather than guessed.
package grammar

import (
	"sort"

	c "repro/internal/combinator"
	"repro/internal/iql"
	"repro/internal/semindex"
	"repro/internal/store"
	"repro/internal/strutil"
)

// tk is the token the parsers read: a question token together with the
// semantic-index annotations that start at it. Everything that differs
// between two questions reaches the parsers this way, through their
// input, so the parsers themselves hold nothing per question.
type tk struct {
	strutil.Token
	anns []semindex.Annotation
}

// parser is the token-level combinator parser type used throughout.
type parser[R any] = c.Parser[tk, R]

// GroupSet is a bitmask of grammar rule groups.
type GroupSet uint32

const (
	// GCore enables question openers, entity noun phrases and value
	// conditions ("students in Computer Science").
	GCore GroupSet = 1 << iota
	// GProj enables column projection ("the salary of ...", "name and
	// gpa of ...").
	GProj
	// GAgg enables aggregates ("how many", "number of", "average X").
	GAgg
	// GGroup enables grouping ("per department", "by region").
	GGroup
	// GSuper enables superlatives and top-N ("largest", "the most").
	GSuper
	// GCmp enables attribute comparisons ("with gpa over 3.5",
	// "between 1 and 10").
	GCmp
	// GNeg enables negation ("not in", "without").
	GNeg
	// GNested enables nested comparisons ("above the average salary",
	// "longer than the Rhine").
	GNested
	// GHavingCount enables related-row counting ("with more than 2
	// enrollments").
	GHavingCount
	// GOrder enables explicit sorting ("sorted by salary descending").
	GOrder
)

// GroupOrder lists the rule groups in the order the coverage experiment
// (F3) enables them.
var GroupOrder = []struct {
	Set  GroupSet
	Name string
}{
	{GCore, "core"},
	{GProj, "projection"},
	{GCmp, "comparison"},
	{GAgg, "aggregation"},
	{GGroup, "grouping"},
	{GSuper, "superlative"},
	{GOrder, "ordering"},
	{GNeg, "negation"},
	{GHavingCount, "having-count"},
	{GNested, "nesting"},
}

// AllGroups returns the full rule set.
func AllGroups() GroupSet {
	var g GroupSet
	for _, x := range GroupOrder {
		g |= x.Set
	}
	return g
}

// Has reports whether g contains x.
func (g GroupSet) Has(x GroupSet) bool { return g&x != 0 }

// Options configures a Grammar.
type Options struct {
	Groups GroupSet
}

// DefaultOptions enables every rule group.
func DefaultOptions() Options { return Options{Groups: AllGroups()} }

// Grammar parses questions against one semantic index.
//
// New builds the combinator tree once: each nonterminal is constructed
// once and shared by reference wherever the grammar uses it, and what
// does not depend on the index or the rule groups (determiners, the
// opener, numbers, the annotation atoms, the token-only modifiers) is
// built once per process. Parsing only runs the tree. The tree closes
// over the index and nothing that changes afterwards, so one Grammar
// parses any number of questions from any number of goroutines at once.
type Grammar struct {
	idx  *semindex.Index
	opts Options

	top    parser[*draft]   // start symbol over the enabled rule groups
	np     parser[*draft]   // noun phrase
	mods   parser[[]mod]    // post-modifier sequence
	numCol parser[fieldRef] // columnAtom restricted to numeric columns
}

// New creates a grammar over the given semantic index.
func New(idx *semindex.Index, opts Options) *Grammar {
	if opts.Groups == 0 {
		opts.Groups = AllGroups()
	}
	g := &Grammar{idx: idx, opts: opts}
	g.numCol = c.Filter(columnAtom, func(f fieldRef) bool {
		ct, ok := idx.ColumnType(f.f.Table, f.f.Column)
		return ok && ct.IsNumeric()
	})
	// np -> mods -> nestedAvgMod -> np: mods reaches the noun phrase
	// through c.Ref(&g.np), assigned below before any parse.
	g.mods = g.buildMods()
	g.np = g.buildNP()
	g.top = g.buildTop()
	return g
}

// Candidate is one complete parse of a question.
type Candidate struct {
	Query *iql.Query
	Score float64 // accumulated annotation match quality
}

// Prepared is a question after lexical preparation: noise stripped and
// every span annotated by the semantic index. Splitting preparation
// from parsing lets the timing experiment (F1) attribute annotation
// and parsing costs separately. Anns is ordered by Start, as
// Index.Annotate returns it.
type Prepared struct {
	Toks []strutil.Token
	Anns []semindex.Annotation
}

// Prepare strips noise tokens and annotates the question.
func (g *Grammar) Prepare(toks []strutil.Token) Prepared {
	toks = stripNoise(toks)
	return Prepared{Toks: toks, Anns: g.idx.Annotate(toks)}
}

// Parse parses a tokenized question into logical query candidates,
// deduplicated, best score first. An empty result means the question is
// outside the grammar's coverage.
func (g *Grammar) Parse(toks []strutil.Token) []Candidate {
	return g.ParsePrepared(g.Prepare(toks))
}

// ParsePrepared parses an already-prepared question.
func (g *Grammar) ParsePrepared(p Prepared) []Candidate {
	if len(p.Toks) == 0 {
		return nil
	}
	return g.candidates(c.ParseAll(g.top, annotated(p)))
}

// annotated pairs each token with the annotations starting at it: the
// run of p.Anns with that Start.
func annotated(p Prepared) []tk {
	out := make([]tk, len(p.Toks))
	i := 0
	for pos, t := range p.Toks {
		lo := i
		for i < len(p.Anns) && p.Anns[i].Start == pos {
			i++
		}
		out[pos] = tk{Token: t, anns: p.Anns[lo:i]}
	}
	return out
}

// candidates finalizes the complete parses and keeps, for each distinct
// query, its best-scoring draft at the place the query was first found;
// the result is ordered best score first, stably.
func (g *Grammar) candidates(drafts []*draft) []Candidate {
	var out []Candidate
	at := map[string]int{} // Query.String() -> index in out
	for _, d := range drafts {
		q, ok := d.finalize(g.idx)
		if !ok {
			continue
		}
		key := q.String()
		if i, seen := at[key]; !seen {
			at[key] = len(out)
			out = append(out, Candidate{Query: q, Score: d.score})
		} else if d.score > out[i].Score {
			out[i] = Candidate{Query: q, Score: d.score}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// stripNoise removes the trailing question mark, leading politeness and
// other tokens that carry no meaning for any rule.
func stripNoise(toks []strutil.Token) []strutil.Token {
	out := make([]strutil.Token, 0, len(toks))
	for i, t := range toks {
		if t.Kind == strutil.Punct {
			continue // "?" and "," — list commas are re-handled as "and"
		}
		if i == 0 && t.Lower == "please" {
			continue
		}
		out = append(out, t)
	}
	return out
}

// ---- primitive parsers ----

// word matches one token whose lowercase form is one of ws. The sets
// are short, so a scan of the literal beats hashing and the parser
// retains nothing but the literal.
func word(ws ...string) parser[tk] {
	return c.Satisfy(func(t tk) bool {
		if t.Kind != strutil.Word {
			return false
		}
		for _, w := range ws {
			if w == t.Lower {
				return true
			}
		}
		return false
	})
}

// optWords makes word(ws...) optional, discarding its value.
func optWords(ws ...string) parser[struct{}] {
	return c.Opt(c.Map(word(ws...), func(tk) struct{} { return struct{}{} }), struct{}{})
}

// dets skips determiners: the longest run, like c.Many, but written
// out because it runs at nearly every position and would otherwise
// collect the tokens it skips.
func dets(toks []tk, pos int) []c.Result[struct{}] {
	for pos < len(toks) && toks[pos].Kind == strutil.Word {
		switch toks[pos].Lower {
		case "a", "an", "the", "all", "every", "any":
			pos++
			continue
		}
		break
	}
	return []c.Result[struct{}]{{Next: pos}}
}

// entRef is a parsed table reference.
type entRef struct {
	table string
	score float64
}

// fieldRef is a parsed column reference.
type fieldRef struct {
	f     iql.FieldRef
	score float64
}

// valRef is a parsed data-value reference.
type valRef struct {
	f     iql.FieldRef
	v     store.Value
	score float64
}

// tableAtom yields one parse per table annotation starting here.
func tableAtom(toks []tk, pos int) []c.Result[entRef] {
	if pos >= len(toks) {
		return nil
	}
	var out []c.Result[entRef]
	for _, a := range toks[pos].anns {
		if a.Kind == semindex.TableElem {
			out = append(out, c.Result[entRef]{
				Value: entRef{table: a.Table, score: a.Score},
				Next:  a.End,
			})
		}
	}
	return out
}

// columnAtom yields one parse per column annotation starting here.
func columnAtom(toks []tk, pos int) []c.Result[fieldRef] {
	if pos >= len(toks) {
		return nil
	}
	var out []c.Result[fieldRef]
	for _, a := range toks[pos].anns {
		if a.Kind == semindex.ColumnElem {
			out = append(out, c.Result[fieldRef]{
				Value: fieldRef{f: iql.FieldRef{Table: a.Table, Column: a.Column}, score: a.Score},
				Next:  a.End,
			})
		}
	}
	return out
}

// valueAtom yields one parse per value annotation starting here.
func valueAtom(toks []tk, pos int) []c.Result[valRef] {
	if pos >= len(toks) {
		return nil
	}
	var out []c.Result[valRef]
	for _, a := range toks[pos].anns {
		if a.Kind == semindex.ValueElem {
			out = append(out, c.Result[valRef]{
				Value: valRef{
					f:     iql.FieldRef{Table: a.Table, Column: a.Column},
					v:     a.Value,
					score: a.Score,
				},
				Next: a.End,
			})
		}
	}
	return out
}

// quoted matches a quoted token, yielding its verbatim text.
var quoted = c.Map(
	c.Satisfy(func(t tk) bool { return t.Kind == strutil.Quoted }),
	func(t tk) string { return t.Text })

// number parses a numeric token (optionally scaled: "1.5 million") or a
// run of spelled-out number words ("twenty five").
var number = func() parser[float64] {
	numTok := c.Map(
		c.Satisfy(func(t tk) bool { return t.Kind == strutil.Number }),
		func(t tk) float64 {
			v, _ := strutil.ParseNumber(t.Lower)
			return v
		})
	scale := c.Map(word("thousand", "million", "billion"), func(t tk) float64 {
		switch t.Lower {
		case "thousand":
			return 1e3
		case "million":
			return 1e6
		}
		return 1e9
	})
	scaledTok := c.Seq2(numTok, c.Opt(scale, 1), func(v, s float64) float64 { return v * s })

	wordRun := c.Many1(c.Satisfy(func(t tk) bool {
		return t.Kind == strutil.Word && strutil.IsNumberWord(t.Lower)
	}))
	spelled := c.Filter(
		c.Map(wordRun, func(ts []tk) float64 {
			words := make([]string, len(ts))
			for i, t := range ts {
				words[i] = t.Lower
			}
			v, ok := strutil.WordsToNumber(words)
			if !ok {
				return -1
			}
			return v
		}),
		func(v float64) bool { return v >= 0 })

	return c.Alt(scaledTok, spelled)
}()
