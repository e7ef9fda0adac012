// Package iql defines the intermediate query language of the
// interface: a logical representation of a question (entity in focus,
// outputs, conditions, grouping, superlatives, nested comparisons)
// that is independent of both English and SQL. The grammar produces
// IQL candidates; the interpreter ranks them; ToSQL translates the
// winner into a SQL AST using the schema's join graph.
//
// An intermediate layer like this (ATHENA's OQL, NaLIR's query trees)
// is the defining trait of the rule-based architecture: interpretation
// is decoupled from the target query language.
package iql

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/lexicon"
	"repro/internal/store"
)

// FieldRef names a resolved column.
type FieldRef struct {
	Table  string
	Column string
}

// Zero reports whether the reference is unset.
func (f FieldRef) Zero() bool { return f.Table == "" && f.Column == "" }

func (f FieldRef) String() string { return f.Table + "." + f.Column }

// Output is one projection or aggregate in the answer.
type Output struct {
	Agg       lexicon.Agg // NoAgg for a plain column
	Field     FieldRef    // unset for CountStar
	CountStar bool        // COUNT(*) over the joined rows
	Distinct  bool        // COUNT(DISTINCT field)
}

// Condition is one predicate on a column.
type Condition struct {
	Field   FieldRef
	Op      lexicon.CompareOp
	Value   store.Value
	Hi      store.Value   // upper bound when Between
	In      []store.Value // disjunctive values ("in CS or Math"); overrides Value
	Like    string        // LIKE pattern ("containing 'Intro'"); overrides Value
	Between bool
	Negated bool
}

// OrderSpec sorts the answer, optionally by an aggregate over a joined
// table ("the department with the most students"), and optionally
// truncates it (superlatives and top-N).
type OrderSpec struct {
	Field      FieldRef    // sort key (unset when CountRows)
	Agg        lexicon.Agg // NoAgg = plain column sort
	CountRows  bool        // ORDER BY COUNT(*) of joined CountTable rows
	CountTable string      // table being counted when CountRows
	Desc       bool
	Limit      int // 0 = no limit
}

// Having filters groups: "departments with more than 5 students",
// "departments whose average salary exceeds 70000".
type Having struct {
	Agg        lexicon.Agg
	Field      FieldRef // for non-count aggregates
	CountTable string   // table whose joined rows are counted
	Op         lexicon.CompareOp
	Value      float64
}

// SubCompare is an uncorrelated nested comparison: outer field compared
// against an aggregate computed by a subquery ("instructors earning
// more than the average salary", "cities larger than Paris").
type SubCompare struct {
	Field    FieldRef // outer field
	Op       lexicon.CompareOp
	Agg      lexicon.Agg // aggregate in the subquery
	SubField FieldRef    // inner field the aggregate ranges over
	SubConds []Condition // conditions inside the subquery
}

// Query is the resolved logical query.
type Query struct {
	Entity   string // the table whose rows answer the question
	Outputs  []Output
	Conds    []Condition
	GroupBy  []FieldRef
	Order    *OrderSpec
	Having   *Having
	Sub      *SubCompare
	Distinct bool
}

// Clone deep-copies the query (dialogue turns mutate copies).
func (q *Query) Clone() *Query {
	out := *q
	out.Outputs = append([]Output(nil), q.Outputs...)
	out.Conds = cloneConds(q.Conds)
	out.GroupBy = append([]FieldRef(nil), q.GroupBy...)
	if q.Order != nil {
		o := *q.Order
		out.Order = &o
	}
	if q.Having != nil {
		h := *q.Having
		out.Having = &h
	}
	if q.Sub != nil {
		s := *q.Sub
		s.SubConds = cloneConds(q.Sub.SubConds)
		out.Sub = &s
	}
	return &out
}

// cloneConds copies cs and each condition's IN list.
func cloneConds(cs []Condition) []Condition {
	out := append([]Condition(nil), cs...)
	for i := range out {
		out[i].In = slices.Clone(out[i].In)
	}
	return out
}

// MapNumbers calls f with every numeric constant q holds — each
// condition's value, BETWEEN bound and IN members, the subquery's
// conditions' too, and the HAVING count — and, where f returns true,
// replaces the constant with f's number (a condition's as store.Float).
// Text values and the LIMIT are not visited. This is the one place that
// knows which fields of a query hold numbers: the engine's reading
// cache binds a question's numbers through it.
func (q *Query) MapNumbers(f func(x float64) (float64, bool)) {
	mapConds(q.Conds, f)
	if q.Sub != nil {
		mapConds(q.Sub.SubConds, f)
	}
	if q.Having != nil {
		if y, ok := f(q.Having.Value); ok {
			q.Having.Value = y
		}
	}
}

func mapConds(cs []Condition, f func(float64) (float64, bool)) {
	for i := range cs {
		c := &cs[i]
		mapValue(&c.Value, f)
		mapValue(&c.Hi, f)
		for j := range c.In {
			mapValue(&c.In[j], f)
		}
	}
}

func mapValue(v *store.Value, f func(float64) (float64, bool)) {
	if x, ok := v.AsFloat(); ok {
		if y, ok := f(x); ok {
			*v = store.Float(y)
		}
	}
}

// Tables returns every table the query touches, entity first,
// deduplicated in first-mention order.
func (q *Query) Tables() []string {
	var out []string
	seen := map[string]bool{}
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	add(q.Entity)
	for _, o := range q.Outputs {
		add(o.Field.Table)
	}
	for _, c := range q.Conds {
		add(c.Field.Table)
	}
	for _, g := range q.GroupBy {
		add(g.Table)
	}
	if q.Order != nil {
		add(q.Order.Field.Table)
		add(q.Order.CountTable)
	}
	if q.Having != nil {
		add(q.Having.Field.Table)
		add(q.Having.CountTable)
	}
	if q.Sub != nil {
		add(q.Sub.Field.Table)
	}
	return out
}

// Aggregated reports whether the query needs grouping machinery.
func (q *Query) Aggregated() bool {
	if len(q.GroupBy) > 0 || q.Having != nil {
		return true
	}
	if q.Order != nil && (q.Order.Agg != lexicon.NoAgg || q.Order.CountRows) {
		return true
	}
	for _, o := range q.Outputs {
		if o.Agg != lexicon.NoAgg || o.CountStar {
			return true
		}
	}
	return false
}

// String renders a compact debug form.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "entity=%s", q.Entity)
	for _, o := range q.Outputs {
		switch {
		case o.CountStar:
			b.WriteString(" out=COUNT(*)")
		case o.Agg != lexicon.NoAgg:
			fmt.Fprintf(&b, " out=%s(%s)", o.Agg, o.Field)
		default:
			fmt.Fprintf(&b, " out=%s", o.Field)
		}
	}
	for _, c := range q.Conds {
		neg := ""
		if c.Negated {
			neg = "NOT "
		}
		switch {
		case c.Between:
			fmt.Fprintf(&b, " cond=%s%s in [%s, %s]", neg, c.Field, c.Value, c.Hi)
		case len(c.In) > 0:
			fmt.Fprintf(&b, " cond=%s%s IN %v", neg, c.Field, c.In)
		default:
			fmt.Fprintf(&b, " cond=%s%s %s %s", neg, c.Field, c.Op, c.Value)
		}
	}
	for _, g := range q.GroupBy {
		fmt.Fprintf(&b, " group=%s", g)
	}
	if q.Order != nil {
		dir := "asc"
		if q.Order.Desc {
			dir = "desc"
		}
		switch {
		case q.Order.CountRows:
			fmt.Fprintf(&b, " order=COUNT(%s) %s", q.Order.CountTable, dir)
		case q.Order.Agg != lexicon.NoAgg:
			fmt.Fprintf(&b, " order=%s(%s) %s", q.Order.Agg, q.Order.Field, dir)
		default:
			fmt.Fprintf(&b, " order=%s %s", q.Order.Field, dir)
		}
		if q.Order.Limit > 0 {
			fmt.Fprintf(&b, " limit=%d", q.Order.Limit)
		}
	}
	if q.Having != nil {
		if q.Having.CountTable != "" {
			fmt.Fprintf(&b, " having=COUNT(%s) %s %g", q.Having.CountTable, q.Having.Op, q.Having.Value)
		} else {
			fmt.Fprintf(&b, " having=%s(%s) %s %g", q.Having.Agg, q.Having.Field, q.Having.Op, q.Having.Value)
		}
	}
	if q.Sub != nil {
		fmt.Fprintf(&b, " sub=%s %s %s(%s)", q.Sub.Field, q.Sub.Op, q.Sub.Agg, q.Sub.SubField)
	}
	if q.Distinct {
		b.WriteString(" distinct")
	}
	return b.String()
}
