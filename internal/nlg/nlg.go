// Package nlg generates the English side of the interface: a
// paraphrase of the chosen interpretation (the "echo" era systems
// printed so users could verify how their question was understood —
// the trust mechanism) and a verbalization of the executed result.
package nlg

import (
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/iql"
	"repro/internal/lexicon"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/strutil"
)

// Paraphrase renders the logical query as an unambiguous English
// reading of the question.
func Paraphrase(q *iql.Query, s *schema.Schema) string {
	var b strings.Builder
	b.WriteString(focusPhrase(q, s))
	for _, c := range q.Conds {
		b.WriteString(" " + condPhrase(c))
	}
	if q.Sub != nil {
		b.WriteString(" " + subPhrase(q.Sub))
	}
	if q.Having != nil {
		b.WriteString(" " + havingPhrase(q.Having))
	}
	for _, g := range q.GroupBy {
		fmt.Fprintf(&b, ", grouped by %s", colPhrase(g))
	}
	if q.Order != nil {
		b.WriteString(orderPhrase(q.Order))
	}
	return b.String()
}

func focusPhrase(q *iql.Query, s *schema.Schema) string {
	ent := entityNoun(q.Entity)
	if len(q.Outputs) == 0 {
		return "list the " + ent
	}
	var parts []string
	plainOnly := true
	for _, o := range q.Outputs {
		switch {
		case o.CountStar:
			parts = append(parts, "the number of "+ent)
			plainOnly = false
		case o.Agg != lexicon.NoAgg:
			parts = append(parts, fmt.Sprintf("the %s %s", aggNoun(o.Agg), colPhrase(o.Field)))
			plainOnly = false
		default:
			parts = append(parts, "the "+colPhrase(o.Field))
		}
	}
	joined := joinAnd(parts)
	if plainOnly {
		return fmt.Sprintf("show %s of the %s", joined, ent)
	}
	return "compute " + joined
}

func condPhrase(c iql.Condition) string {
	if c.Between {
		neg := ""
		if c.Negated {
			neg = "not "
		}
		return fmt.Sprintf("whose %s is %sbetween %s and %s",
			colPhrase(c.Field), neg, valuePhrase(c.Value), valuePhrase(c.Hi))
	}
	if len(c.In) > 0 {
		var vals []string
		for _, v := range c.In {
			vals = append(vals, valuePhrase(v))
		}
		verb := "is one of"
		if c.Negated {
			verb = "is none of"
		}
		return fmt.Sprintf("whose %s %s %s", colPhrase(c.Field), verb, joinAnd(vals))
	}
	if c.Like != "" {
		verb := "matches"
		core := strings.Trim(c.Like, "%")
		switch {
		case strings.HasPrefix(c.Like, "%") && strings.HasSuffix(c.Like, "%"):
			verb = "contains"
		case strings.HasSuffix(c.Like, "%"):
			verb = "starts with"
		case strings.HasPrefix(c.Like, "%"):
			verb = "ends with"
		}
		if c.Negated {
			verb = "does not " + strings.Fields(verb)[0] + " " + strings.Join(strings.Fields(verb)[1:], " ")
			verb = strings.TrimSpace(verb)
		}
		return fmt.Sprintf("whose %s %s '%s'", colPhrase(c.Field), verb, core)
	}
	return fmt.Sprintf("whose %s %s %s", colPhrase(c.Field), opPhrase(c.Op, c.Negated), valuePhrase(c.Value))
}

func subPhrase(sc *iql.SubCompare) string {
	inner := fmt.Sprintf("the %s %s", aggNoun(sc.Agg), colPhrase(sc.SubField))
	if len(sc.SubConds) > 0 {
		var conds []string
		for _, c := range sc.SubConds {
			conds = append(conds, condPhrase(c))
		}
		inner += " of those " + strings.Join(conds, " and ")
	}
	return fmt.Sprintf("whose %s %s %s", colPhrase(sc.Field), opPhrase(sc.Op, false), inner)
}

func havingPhrase(h *iql.Having) string {
	if h.CountTable != "" {
		return fmt.Sprintf("having a number of %s that %s %s",
			entityNoun(h.CountTable), opPhrase(h.Op, false), strutil.FormatNumber(h.Value))
	}
	return fmt.Sprintf("whose %s %s %s %s",
		aggNoun(h.Agg), colPhrase(h.Field), opPhrase(h.Op, false), strutil.FormatNumber(h.Value))
}

func orderPhrase(o *iql.OrderSpec) string {
	dir := "lowest"
	if o.Desc {
		dir = "highest"
	}
	var key string
	switch {
	case o.CountRows:
		key = "number of " + entityNoun(o.CountTable)
	default:
		key = colPhrase(o.Field)
		if o.Agg != lexicon.NoAgg {
			key = aggNoun(o.Agg) + " " + key
		}
	}
	switch {
	case o.Limit == 1:
		return fmt.Sprintf(", taking the one with the %s %s", dir, key)
	case o.Limit > 1:
		return fmt.Sprintf(", taking the %d with the %s %s", o.Limit, dir, key)
	case o.Desc:
		return fmt.Sprintf(", sorted by %s in descending order", key)
	}
	return fmt.Sprintf(", sorted by %s", key)
}

func colPhrase(f iql.FieldRef) string {
	return strings.ReplaceAll(f.Column, "_", " ") + " of " + entityNoun(f.Table)
}

func entityNoun(table string) string {
	return strings.ReplaceAll(table, "_", " ")
}

// singularNoun is an entity noun for a count of one: "order items"
// becomes "order item".
func singularNoun(ent string) string {
	head, last := "", ent
	if i := strings.LastIndexByte(ent, ' '); i >= 0 {
		head, last = ent[:i+1], ent[i+1:]
	}
	return head + lexicon.Singular(last)
}

func aggNoun(a lexicon.Agg) string {
	switch a {
	case lexicon.Avg:
		return "average"
	case lexicon.Sum:
		return "total"
	case lexicon.Min:
		return "minimum"
	case lexicon.Max:
		return "maximum"
	case lexicon.Count:
		return "count of"
	}
	return ""
}

func opPhrase(op lexicon.CompareOp, negated bool) string {
	var s string
	switch op {
	case lexicon.Eq:
		s = "is"
	case lexicon.Ne:
		s = "is not"
	case lexicon.Lt:
		s = "is less than"
	case lexicon.Le:
		s = "is at most"
	case lexicon.Gt:
		s = "is greater than"
	case lexicon.Ge:
		s = "is at least"
	}
	if negated {
		if op == lexicon.Eq {
			return "is not"
		}
		return "is not such that it " + strings.TrimPrefix(s, "is ")
	}
	return s
}

func valuePhrase(v store.Value) string {
	if v.Kind() == store.KindText {
		return "'" + v.Str() + "'"
	}
	if f, ok := v.AsFloat(); ok {
		return strutil.FormatNumber(f)
	}
	return v.String()
}

func joinAnd(parts []string) string {
	switch len(parts) {
	case 0:
		return ""
	case 1:
		return parts[0]
	}
	return strings.Join(parts[:len(parts)-1], ", ") + " and " + parts[len(parts)-1]
}

// maxListed bounds how many answers the response sentence enumerates.
const maxListed = 10

// Respond verbalizes an executed result in one or two sentences.
func Respond(q *iql.Query, res *exec.Result, s *schema.Schema) string {
	if res == nil {
		return "I could not compute an answer."
	}
	ent := entityNoun(q.Entity)
	if len(q.GroupBy) > 0 {
		return respondGroups(q, res)
	}
	// Scalar answers: one row, one column.
	if len(res.Rows) == 1 && len(res.Cols) == 1 {
		v := res.Rows[0][0]
		if len(q.Outputs) == 1 {
			o := q.Outputs[0]
			switch {
			case o.CountStar:
				if n, ok := v.AsFloat(); ok && n == 1 {
					return fmt.Sprintf("There is 1 matching %s.", singularNoun(ent))
				}
				return fmt.Sprintf("There are %s matching %s.", v, ent)
			case o.Agg != lexicon.NoAgg:
				return fmt.Sprintf("The %s %s is %s.", aggNoun(o.Agg), colPhrase(o.Field), v)
			}
		}
		return fmt.Sprintf("The answer is %s.", v)
	}
	if len(res.Rows) == 0 {
		return fmt.Sprintf("No matching %s were found.", ent)
	}
	// Listing answers: enumerate the first column up to a cap.
	var names []string
	for i, row := range res.Rows {
		if i == maxListed {
			break
		}
		names = append(names, row[0].String())
	}
	if len(res.Rows) == 1 {
		ent = singularNoun(ent)
	}
	sentence := fmt.Sprintf("Found %d matching %s: %s", len(res.Rows), ent, strings.Join(names, ", "))
	if len(res.Rows) > maxListed {
		sentence += fmt.Sprintf(", and %d more", len(res.Rows)-maxListed)
	}
	return sentence + "."
}

// respondGroups verbalizes a GROUP BY result with its values, like the
// scalar and list responses do: the group label is the first group key
// (SQL generation projects explicit group keys first), the value is
// the first aggregate output, and groups beyond the listing cap are
// summarized.
func respondGroups(q *iql.Query, res *exec.Result) string {
	head := fmt.Sprintf("Here is the breakdown by %s (%d groups)",
		colPhrase(q.GroupBy[0]), len(res.Rows))
	if len(res.Rows) == 0 {
		return head + "."
	}
	// Row layout: group keys first, then the outputs in order.
	value := -1
	for i, o := range q.Outputs {
		if o.CountStar || o.Agg != lexicon.NoAgg {
			value = len(q.GroupBy) + i
			break
		}
	}
	var parts []string
	for i, row := range res.Rows {
		if i == maxListed {
			break
		}
		if value >= 0 && value < len(row) {
			parts = append(parts, fmt.Sprintf("%s: %s", row[0], row[value]))
		} else {
			parts = append(parts, row[0].String())
		}
	}
	s := head + ": " + strings.Join(parts, ", ")
	if len(res.Rows) > maxListed {
		s += fmt.Sprintf(", and %d more", len(res.Rows)-maxListed)
	}
	return s + "."
}
