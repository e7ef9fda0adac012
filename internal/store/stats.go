package store

// ColStats summarizes one column for the query planner: row and NULL
// counts and the number of distinct non-NULL values.
type ColStats struct {
	Rows     int
	Nulls    int
	Distinct int
}

// computeStats scans a frozen row set for one column's statistics, the
// first time TableSnap.Stats is asked for that column at that version.
func computeStats(rows []Row, ci int) ColStats {
	s := ColStats{Rows: len(rows)}
	distinct := make(map[string]struct{})
	for _, row := range rows {
		v := row[ci]
		if v.IsNull() {
			s.Nulls++
			continue
		}
		distinct[v.Key()] = struct{}{}
	}
	s.Distinct = len(distinct)
	return s
}
