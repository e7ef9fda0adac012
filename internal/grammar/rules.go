package grammar

import (
	c "repro/internal/combinator"
	"repro/internal/iql"
	"repro/internal/lexicon"
	"repro/internal/store"
	"repro/internal/strutil"
)

// buildTop builds the start symbol from the enabled rule groups.
func (g *Grammar) buildTop() parser[*draft] {
	groups := g.opts.Groups
	var tops []parser[*draft]
	if groups.Has(GCore) {
		tops = append(tops, g.listQ())
	}
	if groups.Has(GProj) {
		tops = append(tops, g.projQ())
	}
	if groups.Has(GAgg) {
		tops = append(tops, g.howManyQ(), g.numberOfQ(), g.aggQ(),
			g.howMuchQ(), g.howManyColQ())
	}
	if groups.Has(GSuper) {
		tops = append(tops, g.whichSuperQ(), g.topNQ())
	}
	if len(tops) == 0 {
		return c.Fail[tk, *draft]()
	}
	return c.Alt(tops...)
}

// opener consumes question-initial boilerplate: "show me all", "what
// are the", "give me a list of", or nothing.
var opener = func() parser[struct{}] {
	unit := struct{}{}
	cmd := c.Satisfy(func(t tk) bool { return t.Kind == strutil.Word && lexicon.IsCommandVerb(t.Lower) })
	listOf := c.Opt(c.Seq2(word("list", "table", "names"), word("of"),
		func(tk, tk) struct{} { return unit }), unit)
	cmdOpen := c.Seq4(cmd, optWords("me", "us"), dets, listOf,
		func(tk, struct{}, struct{}, struct{}) struct{} { return unit })

	wh := c.Satisfy(func(t tk) bool { return t.Kind == strutil.Word && lexicon.WhWords[t.Lower] })
	whOpen := c.Seq2(wh, optWords("is", "are", "was", "were"),
		func(tk, struct{}) struct{} { return unit })

	return c.Alt(cmdOpen, whOpen, c.Succeed[tk](unit))
}()

// superWord matches a superlative adjective or adverb ("largest",
// "most").
var superWord = c.Satisfy(func(t tk) bool {
	_, ok := lexicon.Superlatives[t.Lower]
	return t.Kind == strutil.Word && ok
})

// buildNP builds the noun phrase: determiners, an optional superlative,
// the entity noun, then any number of post-modifiers.
func (g *Grammar) buildNP() parser[*draft] {
	plain := c.Seq3(dets, tableAtom, g.mods, func(_ struct{}, e entRef, ms []mod) *draft {
		d := &draft{entity: e, score: e.score}
		return d.apply(ms)
	})
	// Value-premodified noun phrase: "History students", "Computer
	// Science instructors" — the value restricts the entity through the
	// join graph.
	valueFirst := c.Seq4(dets, valueAtom, tableAtom, g.mods,
		func(_ struct{}, v valRef, e entRef, ms []mod) *draft {
			d := &draft{entity: e, score: e.score + v.score}
			d.conds = append(d.conds, iql.Condition{Field: v.f, Op: lexicon.Eq, Value: v.v})
			return d.apply(ms)
		})
	if !g.opts.Groups.Has(GSuper) {
		return c.Alt(plain, valueFirst)
	}
	return c.Alt(plain, valueFirst, g.superNP())
}

// superNP parses "the largest country [by area]" — a superlative
// adjective before the entity. Without an explicit attribute, each
// numeric attribute of the entity yields a candidate; a lexical hint
// ("longest" -> length) boosts the hinted attribute.
func (g *Grammar) superNP() parser[*draft] {
	byCol := c.Opt(c.Then(word("by"), g.numCol), fieldRef{})

	// Optional plain adjective between the superlative and the noun:
	// "the most expensive product". The adjective supplies the
	// attribute hint; "least" flips the direction.
	adj := c.Opt(c.Map(c.Satisfy(func(t tk) bool {
		_, ok := lexicon.AdjHints[t.Lower]
		return t.Kind == strutil.Word && ok
	}), func(t tk) string { return lexicon.AdjHints[t.Lower] }), "")

	type superHead struct {
		sup lexicon.Superlative
		e   entRef
		by  fieldRef
	}
	head := c.Seq4(c.Then(dets, superWord), adj, tableAtom, byCol,
		func(sw tk, hint string, e entRef, by fieldRef) superHead {
			sup := lexicon.Superlatives[sw.Lower]
			if hint != "" {
				sup.Hint = hint
			}
			return superHead{sup: sup, e: e, by: by}
		})

	return c.Bind(head, func(h superHead) parser[*draft] {
		return c.Map(g.mods, func(ms []mod) *draft {
			base := &draft{entity: h.e, score: h.e.score}
			base.apply(ms)
			base.order = nil // superlative owns the ordering
			return g.applySuper(base, h.sup, h.by)
		})
	})
}

// applySuper attaches the superlative ordering to the draft. When the
// attribute is ambiguous this would need several drafts; parsers handle
// that by calling applySuper once per candidate — here we pick the
// hinted or sole numeric attribute, and mark the draft unusable
// otherwise (finalize drops order-less superlatives).
func (g *Grammar) applySuper(d *draft, sup lexicon.Superlative, by fieldRef) *draft {
	limit := 1
	if !by.f.Zero() {
		d.order = &iql.OrderSpec{Field: by.f, Desc: sup.Desc, Limit: limit}
		d.score += by.score
		return d
	}
	attrs := numericAttrs(g.idx, d.entity.table)
	var chosen iql.FieldRef
	switch {
	case len(attrs) == 0:
		return d // finalize rejects
	case len(attrs) == 1:
		chosen = attrs[0]
	default:
		for _, a := range attrs {
			if hintMatch(g.idx, a, sup.Hint) {
				chosen = a
				break
			}
		}
		if chosen.Zero() {
			chosen = attrs[0] // deterministic default: first numeric attribute
			d.score -= 0.2    // ambiguity penalty
		}
	}
	d.order = &iql.OrderSpec{Field: chosen, Desc: sup.Desc, Limit: limit}
	return d
}

// listQ is the core form: "[show me all] students [in CS] [...]".
func (g *Grammar) listQ() parser[*draft] {
	return c.Seq2(opener, g.np, func(_ struct{}, d *draft) *draft { return d })
}

// projQ projects columns: "[what is] the salary of Ada Lovelace",
// "names and gpas of students in CS".
func (g *Grammar) projQ() parser[*draft] {
	colList := c.SepBy1(columnAtom, word("and"))
	of := word("of", "for", "from", "in", "at")

	// A value target may carry an appositive head noun naming its own
	// table: "the budget of the Physics department".
	valTarget := c.Bind(
		c.Seq2(dets, valueAtom, func(_ struct{}, v valRef) valRef { return v }),
		func(v valRef) parser[*draft] {
			headNoun := c.Opt(
				c.Filter(tableAtom, func(e entRef) bool { return e.table == v.f.Table }),
				entRef{})
			return c.Map(headNoun, func(entRef) *draft {
				return &draft{
					conds: []iql.Condition{{Field: v.f, Op: lexicon.Eq, Value: v.v}},
					score: v.score,
				}
			})
		})
	target := c.Alt(g.np, valTarget)

	head := c.Seq3(opener, dets, colList,
		func(_ struct{}, _ struct{}, cols []fieldRef) []fieldRef { return cols })

	return c.Seq3(head, of, target, func(cols []fieldRef, _ tk, d *draft) *draft {
		out := d.clone()
		if out.entity.table == "" {
			out.entity = entRef{table: cols[0].f.Table, score: 0.5}
		}
		for _, col := range cols {
			out.outputs = append(out.outputs, iql.Output{Field: col.f})
			out.score += col.score
		}
		return out
	})
}

// howManyQ: "how many students [are] [in CS]".
func (g *Grammar) howManyQ() parser[*draft] {
	return c.Seq3(word("how"), word("many"), g.np, func(_, _ tk, d *draft) *draft {
		out := d.clone()
		out.outputs = append([]iql.Output{{CountStar: true}}, out.outputs...)
		return out
	})
}

// howMuchQ: "how much revenue ..." — a mass-noun sum over a numeric
// column ("revenue" resolves through column synonyms).
func (g *Grammar) howMuchQ() parser[*draft] {
	return c.Seq4(word("how"), word("much"), g.numCol, g.mods,
		func(_, _ tk, col fieldRef, ms []mod) *draft {
			d := &draft{
				entity:  entRef{table: col.f.Table, score: 0.5},
				outputs: []iql.Output{{Agg: lexicon.Sum, Field: col.f}},
				score:   col.score,
			}
			return d.apply(ms)
		})
}

// howManyColQ: "how many people live in China" — a count-word over a
// numeric column reads as projecting that column of the restricted
// entity (the population value), not counting rows.
func (g *Grammar) howManyColQ() parser[*draft] {
	return c.Seq4(word("how"), word("many"), g.numCol, g.mods,
		func(_, _ tk, col fieldRef, ms []mod) *draft {
			d := &draft{
				entity:  entRef{table: col.f.Table, score: 0.5},
				outputs: []iql.Output{{Field: col.f}},
				score:   col.score,
			}
			return d.apply(ms)
		})
}

// numberOfQ: "[what is] the number of students [in CS]".
func (g *Grammar) numberOfQ() parser[*draft] {
	return c.Seq4(opener, dets, c.Seq2(word("number", "count"), word("of"),
		func(tk, tk) struct{} { return struct{}{} }), g.np,
		func(_, _ struct{}, _ struct{}, d *draft) *draft {
			out := d.clone()
			out.outputs = append([]iql.Output{{CountStar: true}}, out.outputs...)
			return out
		})
}

// aggQ: "[what is] the average salary [of instructors [in CS]] [per
// department]".
func (g *Grammar) aggQ() parser[*draft] {
	aggWord := c.Satisfy(func(t tk) bool {
		a, ok := lexicon.Aggregates[t.Lower]
		return t.Kind == strutil.Word && ok && a != lexicon.Count
	})
	ofNP := c.Opt(
		c.Then(word("of", "for", "among", "across", "over"), g.np),
		(*draft)(nil))

	head := c.Seq4(opener, dets, aggWord, c.Then(dets, g.numCol),
		func(_ struct{}, _ struct{}, aw tk, col fieldRef) func() (lexicon.Agg, fieldRef) {
			agg := lexicon.Aggregates[aw.Lower]
			return func() (lexicon.Agg, fieldRef) { return agg, col }
		})

	return c.Seq3(head, ofNP, g.mods,
		func(get func() (lexicon.Agg, fieldRef), target *draft, ms []mod) *draft {
			agg, col := get()
			var d *draft
			if target != nil {
				d = target.clone()
			} else {
				d = &draft{entity: entRef{table: col.f.Table, score: 0.5}}
			}
			d.outputs = append([]iql.Output{{Agg: agg, Field: col.f}}, d.outputs...)
			d.score += col.score
			return d.apply(ms)
		})
}

// whichSuperQ: "which country has the largest population",
// "who has the highest salary", "which department has the most
// students".
func (g *Grammar) whichSuperQ() parser[*draft] {
	has := word("has", "have", "with", "had", "earns", "holds", "offers")

	// Entity with optional restrictive modifiers before the verb:
	// "which city in Japan has ...".
	type entMods struct {
		e  entRef
		ms []mod
	}
	entPart := c.Seq4(optWords("which", "what"), dets, tableAtom, g.mods,
		func(_ struct{}, _ struct{}, e entRef, ms []mod) entMods {
			return entMods{e: e, ms: ms}
		})

	// which ENTITY has the SUPER COLUMN
	withCol := c.Seq4(
		entPart,
		has,
		c.Seq3(dets, superWord, c.Then(dets, g.numCol),
			func(_ struct{}, sw tk, col fieldRef) func() (lexicon.Superlative, fieldRef) {
				sup := lexicon.Superlatives[sw.Lower]
				return func() (lexicon.Superlative, fieldRef) { return sup, col }
			}),
		g.mods,
		func(em entMods, _ tk, get func() (lexicon.Superlative, fieldRef), ms []mod) *draft {
			sup, col := get()
			d := &draft{entity: em.e, score: em.e.score + col.score}
			d.apply(em.ms)
			d.apply(ms)
			d.order = &iql.OrderSpec{Field: col.f, Desc: sup.Desc, Limit: 1}
			return d
		})

	// which ENTITY has the most/fewest ENTITY2
	mostWord := word("most", "fewest", "least")
	withCount := c.Seq4(
		entPart,
		has,
		c.Seq3(dets, mostWord, c.Then(dets, tableAtom),
			func(_ struct{}, mw tk, e2 entRef) func() (bool, entRef) {
				desc := mw.Lower == "most"
				return func() (bool, entRef) { return desc, e2 }
			}),
		g.mods,
		func(em entMods, _ tk, get func() (bool, entRef), ms []mod) *draft {
			desc, e2 := get()
			d := &draft{entity: em.e, score: em.e.score + e2.score}
			d.apply(em.ms)
			d.apply(ms)
			d.order = &iql.OrderSpec{CountRows: true, CountTable: e2.table, Desc: desc, Limit: 1}
			return d
		})

	// who has the SUPER COLUMN — entity inferred from the column.
	whoSuper := c.Seq4(word("who"), has,
		c.Seq3(dets, superWord, c.Then(dets, g.numCol),
			func(_ struct{}, sw tk, col fieldRef) func() (lexicon.Superlative, fieldRef) {
				sup := lexicon.Superlatives[sw.Lower]
				return func() (lexicon.Superlative, fieldRef) { return sup, col }
			}),
		g.mods,
		func(_ tk, _ tk, get func() (lexicon.Superlative, fieldRef), ms []mod) *draft {
			sup, col := get()
			d := &draft{entity: entRef{table: col.f.Table, score: 0.5}, score: col.score}
			d.apply(ms)
			d.order = &iql.OrderSpec{Field: col.f, Desc: sup.Desc, Limit: 1}
			return d
		})

	// which ENTITY is the SUPER [COLUMN] — predicate superlative
	// ("which river is the longest").
	pred := c.Seq4(
		entPart,
		c.Then(word("is", "are"), dets),
		superWord,
		c.Opt(c.Then(dets, g.numCol), fieldRef{}),
		func(em entMods, _ struct{}, sw tk, col fieldRef) *draft {
			d := &draft{entity: em.e, score: em.e.score}
			d.apply(em.ms)
			return g.applySuper(d, lexicon.Superlatives[sw.Lower], col)
		})

	return c.Alt(withCol, withCount, whoSuper, pred)
}

// topNQ: "top 5 instructors by salary".
func (g *Grammar) topNQ() parser[*draft] {
	return c.Seq4(
		c.Then(opener, c.Then(optWords("the"), word("top", "first"))),
		number,
		tableAtom,
		c.Seq2(c.Then(word("by"), g.numCol), g.mods,
			func(col fieldRef, ms []mod) func() (fieldRef, []mod) {
				return func() (fieldRef, []mod) { return col, ms }
			}),
		func(_ tk, n float64, e entRef, get func() (fieldRef, []mod)) *draft {
			col, ms := get()
			d := &draft{entity: e, score: e.score + col.score}
			d.apply(ms)
			d.order = &iql.OrderSpec{Field: col.f, Desc: true, Limit: int(n)}
			return d
		})
}

// ---- post-modifiers ----

// buildMods builds the post-modifier sequence: zero or more modifiers,
// preserving every way of carving the remaining tokens (ambiguity flows
// to the ranker).
func (g *Grammar) buildMods() parser[[]mod] {
	single := g.modAlternatives()
	var rec parser[[]mod]
	rec = c.Alt(
		c.Seq2(single, c.Ref(&rec), func(m mod, rest []mod) []mod {
			out := make([]mod, 0, len(rest)+1)
			out = append(out, m)
			return append(out, rest...)
		}),
		c.Succeed[tk]([]mod(nil)),
	)
	return rec
}

func (g *Grammar) modAlternatives() parser[mod] {
	groups := g.opts.Groups
	var alts []parser[mod]
	alts = append(alts, linkMod)
	if groups.Has(GCore) {
		alts = append(alts, valueListMod, valueMod, g.namedMod())
	}
	if groups.Has(GCmp) {
		alts = append(alts, cmpMod, g.betweenMod(), g.containsMod())
	}
	if groups.Has(GNeg) {
		alts = append(alts, negValueMod)
	}
	if groups.Has(GGroup) {
		alts = append(alts, g.groupMod())
	}
	if groups.Has(GOrder) {
		alts = append(alts, orderMod)
	}
	if groups.Has(GHavingCount) {
		alts = append(alts, havingCountMod)
	}
	if groups.Has(GNested) {
		alts = append(alts, g.nestedAvgMod(), g.nestedValueMod())
	}
	return c.Alt(alts...)
}

// linkMod consumes meaning-free linking verbs and relativizers so that
// "students who are enrolled in CS" parses like "students in CS".
var linkMod = c.Map(
	word("who", "that", "which", "are", "is", "was", "were",
		"there", "live", "lives", "living", "located", "study",
		"studies", "studying", "work", "works", "working", "enrolled",
		"majoring", "taught", "offered", "registered", "based",
		"currently"),
	func(tk) mod { return func(*draft) {} })

// valueMod: "[in|from|at|of|on] [the] Computer Science [department]" —
// an equality condition from the value index, with an optional
// appositive head noun naming the value's own table.
var valueMod = func() parser[mod] {
	prep := optWords("in", "from", "at", "of", "on", "for", "within", "to")
	core := c.Seq3(prep, dets, valueAtom,
		func(_ struct{}, _ struct{}, v valRef) valRef { return v })
	withHead := c.Bind(core, func(v valRef) parser[mod] {
		headNoun := c.Opt(
			c.Filter(tableAtom, func(e entRef) bool { return e.table == v.f.Table }),
			entRef{})
		return c.Map(headNoun, func(entRef) mod {
			return func(d *draft) {
				d.conds = append(d.conds, iql.Condition{Field: v.f, Op: lexicon.Eq, Value: v.v})
				d.score += v.score
			}
		})
	})
	return withHead
}()

// valueListMod: "in Computer Science or Mathematics" — a disjunction of
// values on the same column, compiled to an IN list. "and" is read as
// union too: the user means membership in either group.
var valueListMod = func() parser[mod] {
	prep := optWords("in", "from", "at", "of", "on", "for", "within", "to")
	first := c.Seq3(prep, dets, valueAtom,
		func(_ struct{}, _ struct{}, v valRef) valRef { return v })
	return c.Bind(first, func(v valRef) parser[mod] {
		more := c.Many1(
			c.Filter(
				c.Seq3(word("or", "and"), dets, valueAtom,
					func(_ tk, _ struct{}, w valRef) valRef { return w }),
				func(w valRef) bool { return w.f == v.f }))
		return c.Map(more, func(ws []valRef) mod {
			return func(d *draft) {
				in := []store.Value{v.v}
				score := v.score
				for _, w := range ws {
					in = append(in, w.v)
					score += w.score
				}
				d.conds = append(d.conds, iql.Condition{Field: v.f, In: in})
				d.score += score
			}
		})
	})
}()

// namedMod: `named "X"` / `called Ada Lovelace` — equality on the
// entity's display-name column, resolved when the mod is applied.
func (g *Grammar) namedMod() parser[mod] {
	intro := word("named", "called", "titled")
	byQuote := c.Seq2(intro, quoted, func(_ tk, q string) mod {
		return func(d *draft) {
			t := g.idx.Schema.Table(d.entity.table)
			if t == nil {
				d.entity.table = "" // poisons the draft; finalize rejects
				return
			}
			d.conds = append(d.conds, iql.Condition{
				Field: iql.FieldRef{Table: d.entity.table, Column: t.NameColumn()},
				Op:    lexicon.Eq, Value: store.Text(q),
			})
			d.score += 1.0
		}
	})
	byValue := c.Seq2(intro, valueAtom, func(_ tk, v valRef) mod {
		return func(d *draft) {
			d.conds = append(d.conds, iql.Condition{Field: v.f, Op: lexicon.Eq, Value: v.v})
			d.score += v.score
		}
	})
	return c.Alt(byQuote, byValue)
}

// cmpRHS is the right-hand side of a comparison: a number, a quoted
// string, or an indexed value whose column matches.
type cmpRHS struct {
	num    float64
	text   string
	isText bool
	score  float64
}

// cmpOp is a parsed comparison operator phrase: the operator and
// whether it was negated.
type cmpOp struct {
	op  lexicon.CompareOp
	neg bool
}

// cmpOperator parses the comparison operator phrase.
var cmpOperator = func() parser[cmpOp] {
	is := optWords("is", "are", "was", "were")
	not := c.Opt(c.Map(word("not"), func(tk) bool { return true }), false)

	single := c.Map(c.Satisfy(func(t tk) bool {
		_, ok := lexicon.Comparatives[t.Lower]
		return t.Kind == strutil.Word && ok
	}), func(t tk) lexicon.CompareOp { return lexicon.Comparatives[t.Lower] })

	atLeast := c.Seq2(word("at"), word("least", "most"), func(_, w tk) lexicon.CompareOp {
		if w.Lower == "least" {
			return lexicon.Ge
		}
		return lexicon.Le
	})
	equalTo := c.Map(c.Skip(word("equal", "equals"), optWords("to")),
		func(tk) lexicon.CompareOp { return lexicon.Eq })
	exactly := c.Map(word("exactly"), func(tk) lexicon.CompareOp { return lexicon.Eq })
	bare := c.Succeed[tk](lexicon.Eq)

	opWord := c.Alt(single, adjThan, atLeast, equalTo, exactly, bare)
	return c.Seq3(is, not, opWord, func(_ struct{}, neg bool, op lexicon.CompareOp) cmpOp {
		return cmpOp{op: op, neg: neg}
	})
}()

// compAdj matches a comparative adjective ("longer", "higher").
var compAdj = c.Satisfy(func(t tk) bool {
	_, ok := lexicon.ComparativeAdjs[t.Lower]
	return t.Kind == strutil.Word && ok
})

// adjThan parses "<comparative adjective> than" into its operator.
var adjThan = c.Skip(
	c.Map(compAdj, func(t tk) lexicon.CompareOp { return lexicon.ComparativeAdjs[t.Lower] }),
	word("than"))

// cmpMod: "with gpa over 3.5", "whose salary is at least 50000",
// "with title 'Professor'", "with grade A".
var cmpMod = func() parser[mod] {
	rel := c.Then(word("whose", "with", "having", "where", "and",
		"in", "at", "on", "from", "of"), dets)
	rhsNum := c.Map(number, func(v float64) cmpRHS { return cmpRHS{num: v} })
	rhsQuoted := c.Map(quoted, func(q string) cmpRHS { return cmpRHS{text: q, isText: true} })
	rhs := c.Alt(rhsNum, rhsQuoted)

	withOp := c.Seq4(rel, columnAtom, cmpOperator, rhs, func(_ struct{}, f fieldRef, o cmpOp, r cmpRHS) mod {
		return func(d *draft) {
			cond := iql.Condition{Field: f.f, Op: o.op, Negated: o.neg}
			if r.isText {
				cond.Value = store.Text(r.text)
			} else {
				cond.Value = store.Float(r.num)
			}
			d.conds = append(d.conds, cond)
			d.score += f.score
		}
	})

	// column + indexed value: "with title Assistant Professor" — the
	// value annotation must belong to the named column.
	withValue := c.Seq3(rel, columnAtom, c.Then(optWords("is", "are"), valueAtom),
		func(_ struct{}, f fieldRef, v valRef) mod {
			return func(d *draft) {
				if v.f != f.f {
					d.entity.table = "" // mismatch poisons the draft
					return
				}
				d.conds = append(d.conds, iql.Condition{Field: v.f, Op: lexicon.Eq, Value: v.v})
				d.score += f.score + v.score
			}
		})

	return c.Alt(withOp, withValue)
}()

// containsMod: `containing "Intro"`, `whose title starts with "Advanced"`,
// `ending with "Systems"` — substring matching on the entity's display
// column or an explicit text column, compiled to LIKE.
func (g *Grammar) containsMod() parser[mod] {
	optCol := c.Opt(c.Seq2(
		c.Then(word("whose", "with", "where"), dets),
		columnAtom,
		func(_ struct{}, f fieldRef) fieldRef { return f }), fieldRef{})

	kind := c.Alt(
		c.Map(word("containing", "contains", "matching", "including"),
			func(tk) string { return "contain" }),
		c.Map(c.Seq2(word("starting", "starts", "beginning", "begins"), word("with"),
			func(_, w tk) tk { return w }), func(tk) string { return "prefix" }),
		c.Map(c.Seq2(word("ending", "ends"), word("with"),
			func(_, w tk) tk { return w }), func(tk) string { return "suffix" }),
	)

	return c.Seq3(optCol, kind, quoted, func(col fieldRef, k, text string) mod {
		return func(d *draft) {
			f := col.f
			if f.Zero() {
				t := g.idx.Schema.Table(d.entity.table)
				if t == nil {
					d.entity.table = ""
					return
				}
				f = iql.FieldRef{Table: d.entity.table, Column: t.NameColumn()}
			}
			pattern := ""
			switch k {
			case "contain":
				pattern = "%" + text + "%"
			case "prefix":
				pattern = text + "%"
			case "suffix":
				pattern = "%" + text
			}
			d.conds = append(d.conds, iql.Condition{Field: f, Like: pattern})
			d.score += 1 + col.score
		}
	})
}

// betweenMod: "with salary between 50000 and 90000".
func (g *Grammar) betweenMod() parser[mod] {
	rel := c.Then(word("whose", "with", "having", "where", "and"), dets)
	return c.Seq4(
		c.Then(rel, g.numCol),
		c.Then(optWords("is", "are"), word("between")),
		number,
		c.Then(word("and"), number),
		func(f fieldRef, _ tk, lo, hi float64) mod {
			return func(d *draft) {
				d.conds = append(d.conds, iql.Condition{
					Field: f.f, Value: store.Float(lo), Hi: store.Float(hi), Between: true,
				})
				d.score += f.score
			}
		})
}

// negValueMod: "not in CS", "without grade A", "except History".
var negValueMod = func() parser[mod] {
	intro := c.Alt(
		c.Map(c.Seq2(word("not"), optWords("in", "from", "at", "of"),
			func(tk, struct{}) tk { return tk{} }), func(tk) struct{} { return struct{}{} }),
		c.Map(word("without", "except", "excluding", "outside"), func(tk) struct{} { return struct{}{} }),
	)
	// An optional column head before the value ("without grade F")
	// must name the value's own column.
	withCol := c.Seq4(intro, dets, columnAtom, valueAtom,
		func(_ struct{}, _ struct{}, f fieldRef, v valRef) mod {
			return func(d *draft) {
				if f.f != v.f {
					d.entity.table = "" // mismatch poisons the draft
					return
				}
				d.conds = append(d.conds, iql.Condition{Field: v.f, Op: lexicon.Eq, Value: v.v, Negated: true})
				d.score += f.score + v.score
			}
		})
	bare := c.Bind(
		c.Seq3(intro, dets, valueAtom, func(_ struct{}, _ struct{}, v valRef) valRef { return v }),
		func(v valRef) parser[mod] {
			// Optional appositive head noun: "not in the North region".
			headNoun := c.Opt(
				c.Filter(tableAtom, func(e entRef) bool { return e.table == v.f.Table }),
				entRef{})
			return c.Map(headNoun, func(entRef) mod {
				return func(d *draft) {
					d.conds = append(d.conds, iql.Condition{Field: v.f, Op: lexicon.Eq, Value: v.v, Negated: true})
					d.score += v.score
				}
			})
		})
	return c.Alt(withCol, bare)
}()

// groupTarget is a resolved grouping key.
type groupTarget struct {
	f     iql.FieldRef
	score float64
}

// groupMod: "per department", "by region", "for each continent".
func (g *Grammar) groupMod() parser[mod] {
	marker := c.Alt(
		c.Map(word("per", "by"), func(tk) struct{} { return struct{}{} }),
		c.Map(c.Seq2(word("for", "in"), word("each", "every"), func(a, b tk) tk { return b }),
			func(tk) struct{} { return struct{}{} }),
		c.Map(word("each"), func(tk) struct{} { return struct{}{} }),
	)
	byColumn := c.Map(columnAtom, func(f fieldRef) groupTarget {
		return groupTarget{f: f.f, score: f.score}
	})
	byTable := c.Map(tableAtom, func(e entRef) groupTarget {
		t := g.idx.Schema.Table(e.table)
		return groupTarget{f: iql.FieldRef{Table: e.table, Column: t.NameColumn()}, score: e.score}
	})
	target := c.Alt(byColumn, byTable)
	return c.Seq3(marker, dets, target, func(_ struct{}, _ struct{}, gt groupTarget) mod {
		return func(d *draft) {
			d.group = append(d.group, gt.f)
			d.score += gt.score
		}
	})
}

// orderMod: "sorted by salary descending", "ordered by name".
var orderMod = func() parser[mod] {
	intro := c.Skip(word("sorted", "ordered", "ranked", "arranged", "sort", "order"), word("by"))
	dir := c.Opt(c.Map(word("descending", "desc", "decreasing", "ascending", "asc", "increasing"),
		func(t tk) bool {
			return t.Lower == "descending" || t.Lower == "desc" || t.Lower == "decreasing"
		}), false)
	return c.Seq3(c.Then(intro, columnAtom), dir, optWords("order"),
		func(f fieldRef, desc bool, _ struct{}) mod {
			return func(d *draft) {
				d.order = &iql.OrderSpec{Field: f.f, Desc: desc}
				d.score += f.score
			}
		})
}()

// havingCountMod: "with more than 2 enrollments", "having at least 3
// courses" — counts related rows per entity.
var havingCountMod = func() parser[mod] {
	rel := word("with", "having", "who", "that")
	moreThan := c.Seq2(word("more"), word("than"), func(tk, tk) lexicon.CompareOp { return lexicon.Gt })
	fewerThan := c.Seq2(word("fewer", "less"), word("than"), func(tk, tk) lexicon.CompareOp { return lexicon.Lt })
	atLeast := c.Seq2(word("at"), word("least", "most"), func(_, w tk) lexicon.CompareOp {
		if w.Lower == "least" {
			return lexicon.Ge
		}
		return lexicon.Le
	})
	exactly := c.Map(word("exactly"), func(tk) lexicon.CompareOp { return lexicon.Eq })
	opP := c.Alt(moreThan, fewerThan, atLeast, exactly)

	return c.Seq4(c.Then(rel, c.Then(optWords("have", "has"), opP)), number, tableAtom, optWords("records", "rows"),
		func(op lexicon.CompareOp, n float64, e entRef, _ struct{}) mod {
			return func(d *draft) {
				d.having = &iql.Having{CountTable: e.table, Op: op, Value: n}
				d.score += e.score
			}
		})
}()

// nestedAvgMod: "with salary above the average", "whose gpa is higher
// than the average gpa of History students" — an uncorrelated
// aggregate subquery comparison.
func (g *Grammar) nestedAvgMod() parser[mod] {
	rel := c.Then(word("whose", "with", "having", "where", "earning"), dets)
	overUnder := c.Map(word("above", "over", "below", "under"), func(t tk) lexicon.CompareOp {
		if t.Lower == "above" || t.Lower == "over" {
			return lexicon.Gt
		}
		return lexicon.Lt
	})
	opP := c.Seq2(optWords("is", "are"), c.Alt(overUnder, adjThan),
		func(_ struct{}, op lexicon.CompareOp) lexicon.CompareOp { return op })

	avgWord := c.Then(dets, word("average", "mean"))
	subCol := c.Opt(g.numCol, fieldRef{})
	subNP := c.Opt(c.Then(word("of", "for", "among", "in"), c.Ref(&g.np)), (*draft)(nil))

	withCol := c.Seq4(c.Seq2(rel, g.numCol, func(_ struct{}, f fieldRef) fieldRef { return f }),
		c.Skip(opP, avgWord), subCol, subNP,
		func(f fieldRef, op lexicon.CompareOp, sc fieldRef, sub *draft) mod {
			return func(d *draft) {
				subField := f.f
				if !sc.f.Zero() {
					subField = sc.f
					d.score += sc.score
				}
				var subConds []iql.Condition
				if sub != nil {
					// The inner noun phrase contributes its conditions;
					// its entity must host the aggregated column's table
					// via the join graph (validated downstream).
					subConds = sub.conds
					d.score += sub.score
				}
				d.sub = &iql.SubCompare{
					Field: f.f, Op: op, Agg: lexicon.Avg,
					SubField: subField, SubConds: subConds,
				}
				d.score += f.score
			}
		})

	// Column-less form: "earning more than the average salary" — the
	// compared attribute comes from the column after "average" and is
	// re-anchored onto the entity when it owns a same-named column.
	relBare := c.Then(word("earning", "making", "with", "whose", "having"), dets)
	noCol := c.Seq3(c.Then(relBare, c.Skip(opP, avgWord)), g.numCol, subNP,
		func(op lexicon.CompareOp, sc fieldRef, sub *draft) mod {
			return func(d *draft) {
				outer := sc.f
				if t := g.idx.Schema.Table(d.entity.table); t != nil && t.Column(sc.f.Column) != nil {
					outer = iql.FieldRef{Table: d.entity.table, Column: sc.f.Column}
				}
				var subConds []iql.Condition
				if sub != nil {
					subConds = sub.conds
					d.score += sub.score
				}
				d.sub = &iql.SubCompare{
					Field: outer, Op: op, Agg: lexicon.Avg,
					SubField: sc.f, SubConds: subConds,
				}
				d.score += sc.score
			}
		})

	return c.Alt(withCol, noCol)
}

// nestedValueMod: "longer than the Rhine", "with population larger
// than Tokyo" — comparison against a named entity's attribute value,
// compiled to a MAX() subquery pinned to that entity.
func (g *Grammar) nestedValueMod() parser[mod] {
	relCol := c.Opt(c.Seq2(
		c.Then(word("whose", "with", "having", "where"), dets),
		g.numCol,
		func(_ struct{}, f fieldRef) fieldRef { return f }), fieldRef{})

	return c.Bind(
		c.Seq4(relCol, c.Skip(c.Then(optWords("is", "are"), compAdj), word("than")), dets, valueAtom,
			func(col fieldRef, at tk, _ struct{}, v valRef) [3]any {
				return [3]any{col, at, v}
			}),
		func(parts [3]any) parser[mod] {
			col := parts[0].(fieldRef)
			at := parts[1].(tk)
			v := parts[2].(valRef)
			op := lexicon.ComparativeAdjs[at.Lower]
			// Resolve the compared attribute: explicit column, else the
			// hinted/sole numeric attribute of the value's table.
			field := col.f
			if field.Zero() {
				attrs := numericAttrs(g.idx, v.f.Table)
				hint := comparativeHint(at.Lower)
				for _, a := range attrs {
					if hintMatch(g.idx, a, hint) {
						field = a
						break
					}
				}
				if field.Zero() && len(attrs) == 1 {
					field = attrs[0]
				}
				if field.Zero() {
					return c.Fail[tk, mod]()
				}
			}
			// The subquery aggregates the same attribute on the value's
			// table; that table must actually have the column.
			subTable := v.f.Table
			if t := g.idx.Schema.Table(subTable); t == nil || t.Column(field.Column) == nil {
				return c.Fail[tk, mod]()
			}
			subField := iql.FieldRef{Table: subTable, Column: field.Column}
			return c.Succeed[tk](mod(func(d *draft) {
				outer := field
				if t := g.idx.Schema.Table(d.entity.table); t != nil && t.Column(field.Column) != nil {
					outer = iql.FieldRef{Table: d.entity.table, Column: field.Column}
				}
				d.sub = &iql.SubCompare{
					Field: outer, Op: op, Agg: lexicon.Max,
					SubField: subField,
					SubConds: []iql.Condition{{Field: v.f, Op: lexicon.Eq, Value: v.v}},
				}
				d.score += v.score + col.score
			}))
		})
}

// comparativeHint maps comparative adjectives to the attribute they
// evoke, mirroring the superlative hints.
func comparativeHint(adj string) string {
	switch adj {
	case "longer", "shorter":
		return "length"
	case "taller", "higher":
		return "height"
	case "older", "younger":
		return "age"
	case "cheaper":
		return "price"
	case "larger", "bigger", "smaller":
		return "area"
	}
	return ""
}
