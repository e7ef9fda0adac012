package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// Explain renders the plan as an indented operator tree with access
// paths, join strategies and cardinality estimates — the output of the
// console's :explain command and the planner's golden tests.
func (p *Plan) Explain() string {
	var b strings.Builder
	explainNode(&b, p.Root, "", "", 0, false, false)
	return strings.TrimRight(b.String(), "\n")
}

// explainNode renders one operator line. par is the degree of
// parallelism the node executes under (0 outside any exchange): every
// node below an Exchange is annotated with the worker count driving
// it. pw marks nodes inside a PartitionWise subtree, whose hash joins
// build per-partition; an Aggregate directly over a PartitionWise
// merges per-partition states, so both carry [partition-wise]. build
// marks the child a hash join hashes — its right input, the one the
// optimizer estimated smaller — with [build]; the other child streams
// as the probe. Nodes that execute batch-at-a-time over column vectors
// carry [vec]; a node without the mark falls back to the row iterator
// while its vectorizable neighbors stay in batches. A vectorized
// aggregate that folds inside the workers of the Exchange or
// PartitionWise below it carries [partial ×morsel] or [partial
// ×partition]; one left unmarked (SUM, AVG, a float MIN/MAX)
// aggregates the merged stream.
func explainNode(b *strings.Builder, n Node, prefix, childPrefix string, par int, pw, build bool) {
	b.WriteString(prefix)
	b.WriteString(n.describe())
	if build {
		b.WriteString(" [build]")
	}
	switch t := n.(type) {
	case *HashJoin:
		if pw {
			b.WriteString(" [partition-wise]")
		}
	case *Aggregate:
		if _, ok := t.In.(*PartitionWise); ok {
			b.WriteString(" [partition-wise]")
		}
	}
	if staticVec(n) {
		b.WriteString(" [vec]")
		if a, ok := n.(*Aggregate); ok {
			ap, _ := planVecAgg(a, nil, true)
			if f := a.partialOver(ap); f != nil {
				b.WriteString(" [partial ×" + f.unit() + "]")
			}
		}
	}
	if par > 1 {
		fmt.Fprintf(b, " [par=%d]", par)
	}
	b.WriteByte('\n')
	childPar, childPW := par, pw
	switch x := n.(type) {
	case *Exchange:
		childPar = x.Workers
	case *PartitionWise:
		childPar = x.Workers
		childPW = true
	}
	_, isHashJoin := n.(*HashJoin)
	children := n.Children()
	for i, c := range children {
		if i == len(children)-1 {
			explainNode(b, c, childPrefix+"└─ ", childPrefix+"   ", childPar, childPW, isHashJoin)
		} else {
			explainNode(b, c, childPrefix+"├─ ", childPrefix+"│  ", childPar, childPW, false)
		}
	}
}

func (e *Exchange) describe() string {
	name := "?"
	switch t := e.part.(type) {
	case *Scan:
		name = bindingName(t.B)
	case *IndexScan:
		name = bindingName(t.B)
	}
	return fmt.Sprintf("exchange workers=%d (morsels over %s, order-preserving merge)",
		e.Workers, name)
}

func (s *Scan) describe() string {
	seg := ""
	if s.SegN > 0 {
		seg = fmt.Sprintf(" segments=%d skipped=%d", s.SegN, s.SegSkip)
	}
	part := ""
	if s.PartN > 1 {
		part = fmt.Sprintf(" partitions=%d pruned=%d", s.PartN, s.PartPruned)
	}
	return fmt.Sprintf("scan %s%s [est=%d%s%s]", bindingName(s.B), prunedNote(s.B), s.Est, part, seg)
}

func (s *IndexScan) describe() string {
	slot := func(p int) string { return sql.Param{Idx: p}.String() }
	var cond string
	switch {
	case s.EqP >= 0:
		cond = fmt.Sprintf("%s = %s", s.Col, slot(s.EqP))
	case s.Eq != nil:
		cond = fmt.Sprintf("%s = %s", s.Col, s.Eq)
	default:
		lo, hi := "-inf", "+inf"
		lob, hib := "(", ")"
		if s.LoP >= 0 {
			lo = slot(s.LoP)
		} else if s.Lo != nil {
			lo = s.Lo.String()
		}
		if lo != "-inf" && s.LoIncl {
			lob = "["
		}
		if s.HiP >= 0 {
			hi = slot(s.HiP)
		} else if s.Hi != nil {
			hi = s.Hi.String()
		}
		if hi != "+inf" && s.HiIncl {
			hib = "]"
		}
		cond = fmt.Sprintf("%s in %s%s, %s%s", s.Col, lob, lo, hi, hib)
	}
	return fmt.Sprintf("index scan %s (%s)%s [est=%d]",
		bindingName(s.B), cond, prunedNote(s.B), s.Est)
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

func (j *CrossJoin) describe() string {
	return fmt.Sprintf("cross join [est=%d]", j.Est)
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
