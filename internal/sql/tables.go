package sql

import "sort"

// Tables returns the sorted, deduplicated set of base-table names a
// statement reads, including every table referenced only inside
// IN/EXISTS/scalar subqueries at any depth. Callers that cache results
// keyed on data state (the engine answer cache) use this as the
// dependency set: a cached result is valid exactly while none of these
// tables has changed.
func Tables(stmt *SelectStmt) []string {
	seen := map[string]bool{}
	var read func(*SelectStmt)
	read = func(s *SelectStmt) {
		for _, ref := range s.From {
			seen[ref.Table] = true
		}
		WalkStmt(s, func(e Expr) bool {
			if sub := Nested(e); sub != nil {
				read(sub)
			}
			return true
		})
	}
	if stmt != nil {
		read(stmt)
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
