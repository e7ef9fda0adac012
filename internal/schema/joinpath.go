package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// JoinCond is one equi-join predicate between two tables.
type JoinCond struct {
	Left  ColumnRef
	Right ColumnRef
}

func (j JoinCond) String() string { return j.Left.String() + " = " + j.Right.String() }

// JoinPlan is the result of connecting a set of tables: the tables to
// place in FROM (mentioned tables plus any link tables the path needs)
// and the equi-join conditions between them.
type JoinPlan struct {
	Tables []string
	Conds  []JoinCond
}

// edge is an undirected view of a foreign key.
type edge struct {
	fk       ForeignKey
	from, to string // table names; from is the side we traverse out of
}

// joinGraph builds the undirected FK adjacency list. Each table's
// neighbours follow the foreign keys sorted by their String form, so
// the breadth-first search breaks ties between equally short paths the
// same way whatever order the schema declared its keys in.
func joinGraph(fks []ForeignKey) map[string][]edge {
	sorted := slices.Clone(fks)
	slices.SortFunc(sorted, func(a, b ForeignKey) int { return strings.Compare(a.String(), b.String()) })
	adj := make(map[string][]edge)
	for _, fk := range sorted {
		adj[fk.Table] = append(adj[fk.Table], edge{fk: fk, from: fk.Table, to: fk.RefTable})
		adj[fk.RefTable] = append(adj[fk.RefTable], edge{fk: fk, from: fk.RefTable, to: fk.Table})
	}
	return adj
}

// JoinPath connects the given tables over the foreign-key graph with a
// (2-approximate) minimal Steiner tree: starting from the first table,
// it repeatedly attaches the terminal closest to the tree via a
// shortest path. The classic rule-based interpreters (ATHENA's Steiner
// trees, NaLIR's node proximity) use the same idea: the most coherent
// interpretation is the one connecting the mentioned entities with the
// fewest joins.
//
// The result is deterministic for a given schema and input order. The
// foreign-key graph it searches is built once, by New; a call only
// walks it.
// Requesting zero tables yields an empty plan; unknown or unreachable
// tables yield an error.
func (s *Schema) JoinPath(tables []string) (JoinPlan, error) {
	var plan JoinPlan
	if len(tables) == 0 {
		return plan, nil
	}
	// Dedup while preserving order.
	seen := map[string]bool{}
	var terms []string
	for _, t := range tables {
		if s.byName[t] == nil {
			return plan, fmt.Errorf("join path: unknown table %q", t)
		}
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	inTree := map[string]bool{terms[0]: true}
	var conds []JoinCond

	for _, target := range terms[1:] {
		if inTree[target] {
			continue
		}
		path, err := s.shortestPathToSet(target, inTree)
		if err != nil {
			return plan, err
		}
		for _, e := range path {
			inTree[e.from] = true
			inTree[e.to] = true
			conds = append(conds, JoinCond{
				Left:  ColumnRef{Table: e.fk.Table, Column: e.fk.Column},
				Right: ColumnRef{Table: e.fk.RefTable, Column: e.fk.RefColumn},
			})
		}
		inTree[target] = true
	}

	// Assemble table list: terminals in mention order, then link tables
	// in sorted order for determinism.
	plan.Tables = append(plan.Tables, terms...)
	var links []string
	for t := range inTree {
		if !seen[t] {
			links = append(links, t)
		}
	}
	sort.Strings(links)
	plan.Tables = append(plan.Tables, links...)
	plan.Conds = dedupConds(conds)
	return plan, nil
}

// shortestPathToSet finds the shortest FK path from start to any table
// already in the tree, by breadth-first search with deterministic
// neighbor order.
func (s *Schema) shortestPathToSet(start string, tree map[string]bool) ([]edge, error) {
	if tree[start] {
		return nil, nil
	}
	type visit struct {
		via  edge
		prev string
	}
	parent := map[string]visit{}
	visited := map[string]bool{start: true}
	queue := []string{start}
	goal := ""
	for len(queue) > 0 && goal == "" {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range s.adj[cur] {
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			parent[e.to] = visit{via: e, prev: cur}
			if tree[e.to] {
				goal = e.to
				break
			}
			queue = append(queue, e.to)
		}
	}
	if goal == "" {
		return nil, fmt.Errorf("join path: table %q is not connected to the rest of the question", start)
	}
	// Walk back from goal to start collecting edges.
	var path []edge
	cur := goal
	for cur != start {
		v := parent[cur]
		path = append(path, v.via)
		cur = v.prev
	}
	return path, nil
}

func dedupConds(conds []JoinCond) []JoinCond {
	seen := map[string]bool{}
	var out []JoinCond
	for _, c := range conds {
		k := c.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// Reachable reports whether two tables are connected in the FK graph.
func (s *Schema) Reachable(a, b string) bool {
	if a == b {
		return s.byName[a] != nil
	}
	_, err := s.JoinPath([]string{a, b})
	return err == nil
}

// PathLength returns the number of joins needed to connect the given
// tables (the size of the Steiner approximation), used by the
// interpreter to score interpretations. Returns -1 when unconnectable.
func (s *Schema) PathLength(tables []string) int {
	plan, err := s.JoinPath(tables)
	if err != nil {
		return -1
	}
	return len(plan.Conds)
}
