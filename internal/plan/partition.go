package plan

import (
	"fmt"

	"repro/internal/store"
)

// This file is the planner/executor half of partitioned tables (the
// store half lives in store/partition.go): bind-time partition pruning
// for scans, and the PartitionWise operator that runs co-partitioned
// join pipelines with no shared build side — each worker claims whole
// partitions, builds and probes only that partition's streams, and the
// outputs merge in partition order, which is the store's canonical row
// order, so results stay row-for-row identical to serial execution.
//
// Like zone-map skips, the pruning decision is re-derived from the
// bound parameter vector at every open: one prepared template prunes
// per the constants each binding supplies. And like zone-map skips it
// is advisory — every conjunct a pruning predicate derives from stays
// in the Filter above the scan.

// PartitionWise runs its subtree once per partition on a bounded pool
// of Workers goroutines. Each worker repeatedly claims a whole
// partition and runs its own copy of the subtree's iterators with
// every partitioned leaf scan pinned to that partition — hash joins
// inside build per-partition tables (never the shared build side an
// Exchange uses), which is sound because the plan-time eligibility
// check proved every join key equates the partition columns of both
// sides: equal keys always live in the same partition index.
type PartitionWise struct {
	In      Node
	Workers int
	N       int // partition degree every leaf table shares

	// scans maps each partitioned leaf scan to the partition column
	// index its table was hash-partitioned on at plan time. Open
	// revalidates the live schemes against it and degrades to serial
	// execution when a repartition changed the world under a cached
	// plan.
	scans map[*Scan]int
}

func (e *PartitionWise) Rel() *Rel        { return e.In.Rel() }
func (e *PartitionWise) Children() []Node { return []Node{e.In} }

func (e *PartitionWise) describe() string {
	return fmt.Sprintf("partition-wise workers=%d partitions=%d (per-partition build+probe, partition-order merge)",
		e.Workers, e.N)
}

// pwRun tells the leaf scans inside a partition-wise worker which
// partition to read.
type pwRun struct {
	pi    int
	scans map[*Scan]int
}

// ready validates that the runtime partitioning still matches the
// compiled plan and sizes the worker pool; ok is false when the
// operator must degrade to a serial passthrough (worker cap 1, a
// repartitioned or dropped table under a cached template, or an
// enclosing parallel context that already owns the leaves).
func (e *PartitionWise) ready(ctx *Ctx) (workers int, ok bool) {
	if ctx.part != nil || ctx.pw != nil {
		return 0, false
	}
	workers = e.Workers
	if ctx.Par > 0 && ctx.Par < workers {
		workers = ctx.Par
	}
	if workers <= 1 {
		return 0, false
	}
	for s, ci := range e.scans {
		tab := ctx.Snap.Table(s.B.Meta.Name)
		if tab == nil {
			return 0, false
		}
		sch := tab.Scheme()
		if sch.Kind != store.PartHash || sch.N != e.N || sch.Ci != ci {
			return 0, false
		}
	}
	if workers > e.N {
		workers = e.N
	}
	return workers, true
}

// slots hands out whole partitions: each worker's context gets no
// shared build state (builds are per-partition by construction) and a
// serial inner degree — the parallelism budget is the partition fan-out
// itself.
func (e *PartitionWise) slots(ctx *Ctx) (int, func(slotSink) error, error) {
	workers, ok := e.ready(ctx)
	if !ok {
		return 0, nil, nil
	}
	return e.N, func(sink slotSink) error {
		return runSlots(ctx, workers, e.N, func(p int, wctx *Ctx) error {
			wctx.shared = nil
			wctx.Par = 1
			wctx.pw = &pwRun{pi: p, scans: e.scans}
			return sink(p, wctx)
		})
	}, nil
}

func (e *PartitionWise) vopen(ctx *Ctx) (viter, error) { return keepSlots(e, ctx) }
func (e *PartitionWise) unit() string                  { return "partition" }

// ---- plan-time eligibility ----

// partitionWise decides whether the pipeline subtree rel can run
// partition-wise, returning the common partition degree and the leaf
// scans pinned per worker (0, nil when it cannot). At least one hash
// join must benefit — a join-free subtree parallelizes better under
// the morsel exchange, whose work-stealing handles skewed partitions.
func partitionWise(sn *store.Snapshot, rel Node, par int) (int, map[*Scan]int) {
	if sn == nil || par <= 1 {
		return 0, nil
	}
	scans := map[*Scan]int{}
	deg, joins, ok := copartJoins(sn, rel, scans)
	if !ok || joins == 0 || deg <= 1 {
		return 0, nil
	}
	return deg, scans
}

// copartJoins walks the pipeline subtree verifying the partition-wise
// invariant: every leaf is a Scan (optionally under a Filter) of a
// hash-partitioned table, all tables share one partition degree, and
// every hash join carries at least one key pair equating the partition
// columns of both sides. Join equality hashes the same canonical key
// bytes partition routing does, so equal join keys are confined to one
// partition index — per-partition builds then see exactly the build
// rows a shared build would offer each probe.
func copartJoins(sn *store.Snapshot, n Node, scans map[*Scan]int) (deg, joins int, ok bool) {
	switch t := n.(type) {
	case *Scan:
		tab := sn.Table(t.B.Meta.Name)
		if tab == nil {
			return 0, 0, false
		}
		sch := tab.Scheme()
		if sch.Kind != store.PartHash || sch.N <= 1 {
			return 0, 0, false
		}
		scans[t] = sch.Ci
		return sch.N, 0, true
	case *Filter:
		return copartJoins(sn, t.In, scans)
	case *HashJoin:
		ld, lj, lok := copartJoins(sn, t.L, scans)
		if !lok {
			return 0, 0, false
		}
		rd, rj, rok := copartJoins(sn, t.R, scans)
		if !rok || ld != rd {
			return 0, 0, false
		}
		aligned := false
		for k := range t.LKey {
			if offsetIsPartCol(sn, t.L.Rel(), t.LKey[k]) &&
				offsetIsPartCol(sn, t.R.Rel(), t.RKey[k]) {
				aligned = true
				break
			}
		}
		if !aligned {
			return 0, 0, false
		}
		return ld, lj + rj + 1, true
	}
	return 0, 0, false
}

// offsetIsPartCol reports whether row offset off of rel holds the
// partition column of the hash-partitioned table it belongs to.
func offsetIsPartCol(sn *store.Snapshot, rel *Rel, off int) bool {
	for _, b := range rel.Bindings {
		if off < b.Off || off >= b.Off+len(b.Cols) {
			continue
		}
		tab := sn.Table(b.Meta.Name)
		if tab == nil {
			return false
		}
		sch := tab.Scheme()
		return sch.Kind == store.PartHash && b.Cols[off-b.Off] == sch.Ci
	}
	return false
}

// ---- partition pruning ----

// pruneParts evaluates the scan's bound predicates against each
// partition's resident statistics and hash routing, returning the kept
// global row ranges; nil means the table is unpartitioned (scan as
// usual). The decision reads only per-partition statistics and the
// probe values — never rows or segments — so a pruned partition does
// zero segment I/O.
func (s *Scan) pruneParts(ctx *Ctx, tab *store.TableSnap, preds []boundZone, skipAll bool) [][2]int {
	n := tab.NumParts()
	if n <= 1 {
		return nil
	}
	keep := partKeep(tab, s.B, preds, skipAll)
	ranges := make([][2]int, 0, n)
	kept := 0
	for p := 0; p < n; p++ {
		if !keep[p] {
			continue
		}
		kept++
		lo := tab.PartStart(p)
		ranges = append(ranges, [2]int{lo, lo + tab.Part(p).Len()})
	}
	if ctx.PartC != nil {
		ctx.PartC.Scanned.Add(int64(kept))
		ctx.PartC.Pruned.Add(int64(n - kept))
	}
	return ranges
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

// ---- exchange integration ----

// partBoundsFor returns the partition row offsets of an exchange's
// leaf table when it is partitioned (nil otherwise): morsels then cut
// on partition boundaries, handing out whole partitions before
// splitting any single partition into intra-partition morsels.
func partBoundsFor(ctx *Ctx, leaf Node, ids []int) []int {
	if ids != nil {
		return nil // index-selected ids do not align with partitions
	}
	s, ok := leaf.(*Scan)
	if !ok {
		return nil
	}
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil || tab.NumParts() <= 1 {
		return nil
	}
	n := tab.NumParts()
	bounds := make([]int, n+1)
	for p := 0; p < n; p++ {
		bounds[p] = tab.PartStart(p)
	}
	bounds[n] = tab.Len()
	return bounds
}

// morselSpans cuts total rows into contiguous morsels of roughly four
// per worker. With partition bounds, cuts align to partitions: a small
// partition is one whole-partition morsel, a large one splits into
// intra-partition morsels — either way spans ascend, so the in-order
// merge stays canonical.
func morselSpans(total, workers int, bounds []int) [][2]int {
	target := (total + workers*4 - 1) / (workers * 4)
	if target < 1 {
		target = 1
	}
	var spans [][2]int
	if bounds == nil {
		for lo := 0; lo < total; lo += target {
			spans = append(spans, [2]int{lo, min(lo+target, total)})
		}
		return spans
	}
	for p := 0; p+1 < len(bounds); p++ {
		plo, phi := bounds[p], bounds[p+1]
		if plo == phi {
			continue
		}
		cuts := (phi - plo + target - 1) / target
		step := (phi - plo + cuts - 1) / cuts
		for lo := plo; lo < phi; lo += step {
			spans = append(spans, [2]int{lo, min(lo+step, phi)})
		}
	}
	return spans
}
