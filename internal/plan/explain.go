package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// Explain renders the plan as an indented operator tree with scans,
// join strategies and cardinality estimates — the output of the
// console's :explain command and the planner's golden tests.
func (p *Plan) Explain() string {
	var b strings.Builder
	explainNode(&b, p.Root, "", "", 0, false)
	return strings.TrimRight(b.String(), "\n")
}

// explainNode renders one operator line. par is the degree of
// parallelism the node executes under (0 outside any exchange): every
// node below an Exchange is annotated with the worker count driving
// it. build marks the child a hash join hashes — its right input, the
// one the optimizer estimated smaller — with [build]; the other child
// streams as the probe. An aggregate over an Exchange folds inside its
// workers, one group table a worker, and carries [partial ×worker].
func explainNode(b *strings.Builder, n Node, prefix, childPrefix string, par int, build bool) {
	b.WriteString(prefix)
	b.WriteString(n.describe())
	if build {
		b.WriteString(" [build]")
	}
	if a, ok := n.(*Aggregate); ok {
		if _, ok := a.In.(*Exchange); ok {
			b.WriteString(" [partial ×worker]")
		}
	}
	if par > 1 {
		fmt.Fprintf(b, " [par=%d]", par)
	}
	b.WriteByte('\n')
	if x, ok := n.(*Exchange); ok {
		par = x.Workers
	}
	_, isHashJoin := n.(*HashJoin)
	children := n.Children()
	for i, c := range children {
		if i == len(children)-1 {
			explainNode(b, c, childPrefix+"└─ ", childPrefix+"   ", par, isHashJoin)
		} else {
			explainNode(b, c, childPrefix+"├─ ", childPrefix+"│  ", par, false)
		}
	}
}

func (e *Exchange) describe() string {
	return fmt.Sprintf("exchange workers=%d (morsels over %s, order-preserving merge)",
		e.Workers, bindingName(e.part.B))
}

func (s *Scan) describe() string {
	seg := ""
	if s.SegN > 0 {
		seg = fmt.Sprintf(" segments=%d skipped=%d", s.SegN, s.SegSkip)
	}
	return fmt.Sprintf("scan %s%s [est=%d%s]", bindingName(s.B), prunedNote(s.B), s.Est, seg)
}

func (f *Filter) describe() string {
	return fmt.Sprintf("filter %s [est=%d]", f.Pred, f.Est)
}

func (j *HashJoin) describe() string {
	conds := make([]string, len(j.Conds))
	for i, c := range j.Conds {
		conds[i] = c.String()
	}
	return fmt.Sprintf("hash join on %s [est=%d]", strings.Join(conds, " AND "), j.Est)
}

func (p *Project) describe() string {
	return "project " + exprList(p.Items)
}

func (a *Aggregate) describe() string {
	s := "aggregate " + exprList(a.Items)
	if len(a.GroupBy) > 0 {
		s += " group by " + exprList(a.GroupBy)
	}
	if a.Having != nil {
		s += " having " + a.Having.String()
	}
	return s
}

func (d *Distinct) describe() string { return "distinct" }

func (s *Sort) describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return "sort by " + strings.Join(parts, ", ")
}

func (l *Limit) describe() string { return fmt.Sprintf("limit %d", l.N) }

func bindingName(b Binding) string {
	if b.Name != b.Meta.Name {
		return b.Meta.Name + " AS " + b.Name
	}
	return b.Meta.Name
}

// prunedNote reports column pruning, e.g. " cols=2/5".
func prunedNote(b Binding) string {
	if len(b.Cols) == len(b.Meta.Columns) {
		return ""
	}
	return fmt.Sprintf(" cols=%d/%d", len(b.Cols), len(b.Meta.Columns))
}

func exprList(es []sql.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
