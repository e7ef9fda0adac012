package store

// ColStats summarizes one column for the query planner: row and NULL
// counts and the number of distinct non-NULL values.
type ColStats struct {
	Rows     int
	Nulls    int
	Distinct int
}

// computeStats scans a frozen segment set for one column's statistics,
// the first time TableSnap.Stats is asked for that column at that
// version. Distinctness is by Value.Key, as on the cells themselves;
// a key is built in scratch and copied only when it is new.
func computeStats(ss *SegSet, ci int) (ColStats, error) {
	s := ColStats{Rows: ss.N}
	distinct := make(map[string]struct{})
	var key []byte
	for _, seg := range ss.Segs {
		cols, err := seg.Cols(nil)
		if err != nil {
			return ColStats{}, err
		}
		c := cols[ci]
		for i := 0; i < c.N; i++ {
			if c.IsNull(i) {
				s.Nulls++
				continue
			}
			key = c.Value(i).AppendKey(key[:0])
			if _, seen := distinct[string(key)]; !seen {
				distinct[string(key)] = struct{}{}
			}
		}
	}
	s.Distinct = len(distinct)
	return s, nil
}
