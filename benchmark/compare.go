package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// spread is the widest a metric's per-round values lie apart, as a
// share of their median.
func spread(v value) float64 {
	if len(v.Rounds) < 2 {
		return 0
	}
	return ratio(quantile(v.Rounds, 1)-quantile(v.Rounds, 0), median(v.Rounds))
}

// verdict judges one end-to-end metric of one workload against its
// bound. A value moved only if it moved by more than the bound and by
// more than the rounds of either run lie apart among themselves: then
// it is worse or better. Otherwise it is the same, or unresolved when
// the rounds lie further apart than the bound, so that a move of the
// bound's size could not have been seen.
func verdict(m metricDef, old, cur value) string {
	worse := cur.Value - old.Value // positive is worse
	if m.Better == "higher" {
		worse = -worse
	}
	bound := m.Bound*old.Value + m.Floor
	noise := max(spread(old), spread(cur)) * old.Value
	switch allow := max(bound, noise); {
	case worse > allow:
		return "worse"
	case -worse > allow:
		return "better"
	case noise > bound:
		return "unresolved"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric and
// fails if any is worse.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	curBy := map[string]workloadResult{}
	for _, wr := range cur.Workloads {
		curBy[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tchange\tbound\tverdict")
	worse := 0
	for _, ow := range old.Workloads {
		cw, ok := curBy[ow.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			ov, ok1 := ow.EndToEnd[m.Name]
			cv, ok2 := cw.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(m, ov, cv)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%+%g\t%s\n",
				ow.Name, m.Name, ov.Value, cv.Value, m.Unit, 100*ratio(cv.Value-ov.Value, ov.Value), 100*m.Bound, m.Floor, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse than their bound allows", worse)
	}
	return nil
}
