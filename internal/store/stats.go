package store

// ColStats summarizes one column for the query planner: row and NULL
// counts, the number of distinct non-NULL values, and the value range.
// Min/Max are NULL values when the column holds no non-NULL cells.
type ColStats struct {
	Rows     int
	Nulls    int
	Distinct int
	Min, Max Value
}

// Selectivity estimates the fraction of rows an equality predicate on
// this column keeps: 1/distinct, clamped to (0, 1].
func (s ColStats) Selectivity() float64 {
	if s.Rows == 0 {
		return 1
	}
	d := s.Distinct
	if d < 1 {
		d = 1
	}
	sel := 1.0 / float64(d)
	if sel > 1 {
		return 1
	}
	return sel
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
		if s.Min.IsNull() || Compare(v, s.Min) < 0 {
			s.Min = v
		}
		if s.Max.IsNull() || Compare(v, s.Max) > 0 {
			s.Max = v
		}
	}
	s.Distinct = len(distinct)
	return s
}
