package grammar

import (
	c "repro/internal/combinator"
	"repro/internal/iql"
)

// ParseUpdate parses an already-prepared turn as a follow-up fragment
// updating a previous query: elliptical turns such as "only those in
// Computer Science", "what about Math", "how many", "sort them by gpa",
// "show their salaries". The previous query supplies everything the
// fragment leaves unsaid — the dialogue-context mechanism of
// conversational interfaces. It takes the Prepared the full-question
// attempt (ParsePrepared) already ran over, so a turn is annotated once
// however many ways it is read.
//
// Candidates are deduplicated best-first, like Parse. An empty result
// means the fragment could not be related to the previous query.
func (g *Grammar) ParseUpdate(p Prepared, prev *iql.Query) []Candidate {
	if prev == nil || len(p.Toks) == 0 {
		return nil
	}
	return g.candidates(c.ParseAll(g.fragmentTop(prev), annotated(p)))
}

// fragmentTop builds the follow-up start symbol. It is assembled per
// turn because its rules close over prev; the modifiers and atoms it
// runs are the grammar's shared ones.
func (g *Grammar) fragmentTop(prev *iql.Query) parser[*draft] {
	return c.Alt(
		g.refineFrag(prev),
		countFrag(prev),
		showFrag(prev),
		sortFrag(prev),
		g.groupFrag(prev),
		dropFrag(prev),
		rollupFrag(prev),
	)
}

// rollupFrag: "roll up", "remove the grouping" — drops the GROUP BY of
// the context query, returning to the overall aggregate.
func rollupFrag(prev *iql.Query) parser[*draft] {
	intro := c.Alt(
		c.Map(c.Seq2(word("roll"), word("up"), func(a, b tk) tk { return b }),
			func(tk) struct{} { return struct{}{} }),
		c.Map(c.Seq3(word("remove", "drop", "clear"), dets,
			word("grouping", "groups", "breakdown"),
			func(_ tk, _ struct{}, w tk) tk { return w }),
			func(tk) struct{} { return struct{}{} }),
	)
	return c.Map(intro, func(struct{}) *draft {
		if len(prev.GroupBy) == 0 {
			return &draft{} // nothing to roll up: reject
		}
		d := draftFromQuery(prev)
		d.group = nil
		d.score = 1
		return d
	})
}

// dropFrag: "remove the gpa condition", "forget the department filter"
// — deletes inherited conditions on the named column or table.
func dropFrag(prev *iql.Query) parser[*draft] {
	intro := c.Then(word("remove", "drop", "forget", "clear", "ignore"), dets)
	trailer := optWords("condition", "filter", "restriction", "requirement", "constraint")

	byColumn := c.Seq3(intro, columnAtom, trailer,
		func(_ struct{}, f fieldRef, _ struct{}) *draft {
			d := draftFromQuery(prev)
			kept := d.conds[:0:0]
			for _, cond := range d.conds {
				if cond.Field != f.f {
					kept = append(kept, cond)
				}
			}
			if len(kept) == len(d.conds) {
				return &draft{} // nothing to drop: reject
			}
			d.conds = kept
			d.score += f.score
			return d
		})

	byTable := c.Seq3(intro, tableAtom, trailer,
		func(_ struct{}, e entRef, _ struct{}) *draft {
			d := draftFromQuery(prev)
			kept := d.conds[:0:0]
			for _, cond := range d.conds {
				if cond.Field.Table != e.table {
					kept = append(kept, cond)
				}
			}
			if len(kept) == len(d.conds) {
				return &draft{}
			}
			d.conds = kept
			d.score += e.score
			return d
		})

	return c.Alt(byColumn, byTable)
}

// fragNoise consumes follow-up filler ("only the ones", "what about",
// "and now", "of those").
var fragNoise = c.Map(c.Many(word("only", "just", "and", "also", "now", "then", "what",
	"how", "about", "of", "those", "them", "these", "the", "ones",
	"one", "restrict", "filter", "to", "show", "me", "please",
	"for", "but", "instead", "same")),
	func([]tk) struct{} { return struct{}{} })

// draftFromQuery seeds a draft with the previous turn's query.
func draftFromQuery(prev *iql.Query) *draft {
	q := prev.Clone()
	return &draft{
		entity:  entRef{table: q.Entity, score: 1},
		outputs: q.Outputs,
		conds:   q.Conds,
		group:   q.GroupBy,
		order:   q.Order,
		having:  q.Having,
		sub:     q.Sub,
		score:   0,
	}
}

// refineFrag applies ordinary post-modifiers to the previous query:
// "only those in CS", "with gpa over 3.5", "what about Math".
func (g *Grammar) refineFrag(prev *iql.Query) parser[*draft] {
	return c.Seq2(fragNoise, g.mods, func(_ struct{}, ms []mod) *draft {
		if len(ms) == 0 {
			return &draft{} // empty entity: finalize rejects
		}
		d := draftFromQuery(prev)
		before := snapshot(d)
		d.apply(ms)
		if snapshot(d) == before {
			return &draft{} // fragment changed nothing (all linking words)
		}
		d.conds = replaceRefinedConds(d.conds, len(prev.Conds))
		return d
	})
}

// snapshot fingerprints the mutable parts of a draft to detect vacuous
// fragments.
func snapshot(d *draft) string {
	q := iql.Query{
		Entity: d.entity.table, Outputs: d.outputs, Conds: d.conds,
		GroupBy: d.group, Order: d.order, Having: d.having, Sub: d.sub,
	}
	return q.String()
}

// replaceRefinedConds implements substitution semantics: a newly added
// condition replaces an inherited condition on the same column with the
// same operator ("what about Math" swaps the department), while
// conditions on new columns or with different operators accumulate.
func replaceRefinedConds(conds []iql.Condition, inherited int) []iql.Condition {
	if inherited > len(conds) {
		inherited = len(conds)
	}
	drop := make([]bool, len(conds))
	for ni := inherited; ni < len(conds); ni++ {
		for oi := 0; oi < inherited; oi++ {
			if drop[oi] {
				continue
			}
			if conds[oi].Field == conds[ni].Field &&
				conds[oi].Op == conds[ni].Op &&
				conds[oi].Between == conds[ni].Between {
				drop[oi] = true
			}
		}
	}
	out := conds[:0:0]
	for i, c := range conds {
		if !drop[i] {
			out = append(out, c)
		}
	}
	return out
}

// countFrag: "how many", "how many of those", "count them" — switch the
// focus to counting while keeping all restrictions.
func countFrag(prev *iql.Query) parser[*draft] {
	howMany := c.Seq2(word("how"), word("many"), func(a, b tk) tk { return b })
	countThem := word("count")
	intro := c.Alt(howMany, countThem)
	trailer := c.Map(c.Many(word("of", "those", "them", "these", "are", "there")),
		func([]tk) struct{} { return struct{}{} })
	return c.Seq2(intro, trailer, func(_ tk, _ struct{}) *draft {
		d := draftFromQuery(prev)
		d.outputs = []iql.Output{{CountStar: true}}
		d.order = nil // counting supersedes any ordering
		d.score = 1
		return d
	})
}

// showFrag: "show their salaries", "what are their names" — change the
// projected columns, keeping restrictions.
func showFrag(prev *iql.Query) parser[*draft] {
	intro := c.Map(c.Many1(word("show", "list", "display", "give", "what",
		"is", "are", "me", "their", "its", "the")),
		func([]tk) struct{} { return struct{}{} })
	colList := c.SepBy1(columnAtom, word("and"))
	trailer := c.Map(c.Many(word("of", "for", "those", "them", "these", "instead")),
		func([]tk) struct{} { return struct{}{} })
	return c.Seq3(intro, colList, trailer, func(_ struct{}, cols []fieldRef, _ struct{}) *draft {
		d := draftFromQuery(prev)
		d.outputs = nil
		for _, col := range cols {
			d.outputs = append(d.outputs, iql.Output{Field: col.f})
			d.score += col.score
		}
		return d
	})
}

// sortFrag: "sort them by gpa", "order by salary descending".
func sortFrag(prev *iql.Query) parser[*draft] {
	intro := c.Then(
		word("sort", "order", "rank", "arrange", "sorted", "ordered"),
		c.Then(c.Map(c.Many(word("them", "those", "these", "it")),
			func([]tk) struct{} { return struct{}{} }), word("by")))
	dir := c.Opt(c.Map(word("descending", "desc", "decreasing", "ascending", "asc", "increasing"),
		func(t tk) bool {
			return t.Lower == "descending" || t.Lower == "desc" || t.Lower == "decreasing"
		}), false)
	return c.Seq3(c.Then(intro, columnAtom), dir, optWords("order"),
		func(f fieldRef, desc bool, _ struct{}) *draft {
			d := draftFromQuery(prev)
			d.order = &iql.OrderSpec{Field: f.f, Desc: desc}
			d.score += f.score
			return d
		})
}

// groupFrag: "group them by department", "break it down by region".
func (g *Grammar) groupFrag(prev *iql.Query) parser[*draft] {
	intro := c.Then(
		c.Alt(word("group", "split", "break"),
			word("grouped")),
		c.Then(c.Map(c.Many(word("them", "those", "these", "it", "down")),
			func([]tk) struct{} { return struct{}{} }), word("by")))
	byColumn := c.Map(columnAtom, func(f fieldRef) groupTarget {
		return groupTarget{f: f.f, score: f.score}
	})
	byTable := c.Map(tableAtom, func(e entRef) groupTarget {
		t := g.idx.Schema.Table(e.table)
		return groupTarget{f: iql.FieldRef{Table: e.table, Column: t.NameColumn()}, score: e.score}
	})
	return c.Seq3(intro, dets, c.Alt(byColumn, byTable),
		func(_ tk, _ struct{}, gt groupTarget) *draft {
			d := draftFromQuery(prev)
			d.group = append(d.group, gt.f)
			d.score += gt.score
			// Grouping a plain listing implies counting per group.
			if len(d.outputs) == 0 || (allPlain(d.outputs) && d.having == nil && d.order == nil) {
				d.outputs = []iql.Output{{CountStar: true}}
			}
			return d
		})
}
