package plan

import (
	"repro/internal/store"
)

// This file is the planner/executor half of partitioned tables (the
// store half lives in store/partition.go): partition pruning for scans.
// A partitioned table reads like any other — its canonical row order is
// its partitions concatenated, and partition boundaries are segment
// boundaries — except that a scan first drops the partitions its bound
// predicates rule out. Scan.keptRanges is the one place that happens:
// the serial walk and an Exchange's morsels both read the ranges it
// keeps, so a parallel run prunes exactly what a serial one does.
//
// Like zone-map skips, the pruning decision is re-derived from the
// bound parameter vector at every open: one prepared template prunes
// per the constants each binding supplies. And like zone-map skips it
// is advisory — every conjunct a pruning predicate derives from stays
// in the Filter above the scan.

// ---- partition pruning ----

// keptRanges appends to buf the ascending global row ranges this run of
// the scan reads: the whole table when it is unpartitioned, else one
// range per partition that survives the scan's bound predicates against
// its resident statistics and hash routing. PartC is charged here, once
// a run. The decision reads only per-partition statistics and the probe
// values — never rows or segments — so a pruned partition does zero
// segment I/O.
func (s *Scan) keptRanges(ctx *Ctx, tab *store.TableSnap, buf [][2]int) [][2]int {
	n := tab.NumParts()
	if n <= 1 {
		return append(buf, [2]int{0, tab.Len()})
	}
	preds, skipAll := bindZonePreds(s.Skips, ctx.Params)
	kept := 0
	for p, keep := range partKeep(tab, s.B, preds, skipAll) {
		if keep {
			kept++
			buf = append(buf, [2]int{tab.PartStart(p), tab.PartStart(p + 1)})
		}
	}
	if ctx.PartC != nil {
		ctx.PartC.Scanned.Add(int64(kept))
		ctx.PartC.Pruned.Add(int64(n - kept))
	}
	return buf
}

// partKeep computes the kept-partition set of a scan: a partition
// survives unless hash routing excludes it or its statistics prove a
// bound predicate non-TRUE on every row.
func partKeep(tab *store.TableSnap, b Binding, preds []boundZone, skipAll bool) []bool {
	n := tab.NumParts()
	keep := make([]bool, n)
	if skipAll {
		return keep
	}
	cand := routeCandidates(tab.Scheme(), b, preds)
	for p := 0; p < n; p++ {
		if cand != nil && !cand[p] {
			continue
		}
		keep[p] = !partPruned(tab.Part(p), b, preds)
	}
	return keep
}

// routeCandidates narrows a hash scheme's candidate set from equality
// predicates on the partition column: a probe value can only ever live
// in the partition it routes to. Gated on the probe kind matching the
// column's stored kind — routing hashes canonical key bytes, and only
// same-kind values are guaranteed key-equal when they compare equal.
func routeCandidates(sch store.PartScheme, b Binding, preds []boundZone) []bool {
	if sch.Kind != store.PartHash {
		return nil
	}
	colKind := store.KindOfColType(b.Meta.Columns[sch.Ci].Type)
	var cand []bool
	for i := range preds {
		p := &preds[i]
		if p.ci != sch.Ci {
			continue
		}
		var vs []store.Value
		switch p.op {
		case zoneEq:
			vs = []store.Value{p.v}
		case zoneIn:
			vs = p.list
		default:
			continue
		}
		c := make([]bool, sch.N)
		usable := true
		for _, v := range vs {
			if v.Kind() != colKind {
				usable = false
				break
			}
			c[sch.Route(v)] = true
		}
		if !usable {
			continue
		}
		if cand == nil {
			cand = c
			continue
		}
		for j := range cand {
			cand[j] = cand[j] && c[j]
		}
	}
	return cand
}

// partPruned reports whether one partition's statistics prove every
// row rejected. Statistics live on the partition's resident row set,
// so — like zone-map tests — this never faults a segment in just to
// decide not to read it.
func partPruned(part *store.TableSnap, b Binding, preds []boundZone) bool {
	for i := range preds {
		p := &preds[i]
		st, ok := part.Stats(b.Meta.Columns[p.ci].Name)
		if !ok {
			continue
		}
		if st.Rows == 0 || st.Rows == st.Nulls {
			return true // empty, or all-NULL: every comparison rejects
		}
		if p.skipsRange(st.Min, st.Max) {
			return true
		}
	}
	return false
}

// partScanStats evaluates a scan's partition pruning against the
// snapshot at compile time — the `partitions=N pruned=K` numbers
// Explain reports. Runtime opens re-derive the kept set from their own
// parameters, exactly like zone-map skips.
func partScanStats(sn *store.Snapshot, b Binding, skips []ZonePred, params []store.Value) (n, pruned int) {
	tab := sn.Table(b.Meta.Name)
	if tab == nil {
		return 0, 0
	}
	n = tab.NumParts()
	if n <= 1 {
		return n, 0
	}
	preds, skipAll := bindZonePreds(skips, params)
	for _, k := range partKeep(tab, b, preds, skipAll) {
		if !k {
			pruned++
		}
	}
	return n, pruned
}

// ---- iterator plumbing ----

// chainViters concatenates batch iterators in order.
func chainViters(its []viter) viter {
	i := 0
	return func() (*vbatch, error) {
		for i < len(its) {
			b, err := its[i]()
			if err != nil || b != nil {
				return b, err
			}
			i++
		}
		return nil, nil
	}
}
