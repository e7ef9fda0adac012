package plan

import (
	"fmt"
	"sort"

	"repro/internal/store"
)

// MaxProduct bounds cartesian products so a bad interpretation cannot
// take the process down.
const MaxProduct = 5_000_000

// Ctx carries everything an executing plan needs: the pinned database
// snapshot, the expression evaluator, the correlation parent for
// subquery plans, and the parallel-execution state of the current run.
// When Par > 1 the Evaluator must be safe for concurrent use.
//
// Snap is a store.Snapshot, so the whole plan — scans, index probes,
// segments, statistics — reads one frozen version of the data:
// concurrent writers publish new versions without ever being observed
// mid-query.
type Ctx struct {
	Snap   *store.Snapshot
	Ev     Evaluator
	Parent *Frame
	Par    int // worker budget; <= 1 executes serially

	// Params is the parameter vector of a prepared execution: the
	// values sql.Param slots in the plan's expressions (and the
	// parameter-slot probes of index scans) resolve to. nil for plans
	// compiled from fully-literal statements.
	Params []store.Value

	// NoVec forces row-at-a-time execution everywhere — the ablation
	// and differential-testing baseline for the vectorized engine.
	NoVec bool

	// SegC, when set, accumulates runtime segment counters: segments
	// decoded vs segments skipped by zone maps across all scans of the
	// run (including Exchange workers — the fields are atomic).
	SegC *store.SegCounters

	// PartC, when set, accumulates runtime partition counters: the
	// partitions scans actually read vs the partitions pruned by bound
	// predicates against partition statistics (atomic fields, shared by
	// parallel workers like SegC).
	PartC *store.PartCounters

	// Done, when non-nil, is the cancellation signal of the request
	// this run serves (a context's Done channel, threaded by exec).
	// Iterator loops check it at batch granularity — see cancel.go —
	// and abort the run with Cause's error (context.Canceled when
	// Cause is nil or returns nil). A nil Done runs with zero
	// cancellation overhead.
	Done <-chan struct{}

	// Cause reports why Done closed (context.Cause of the request
	// context), letting the serving layer distinguish a deadline from
	// a client disconnect in the error it maps to a status code.
	Cause func() error

	part    *morselRun   // set inside an Exchange worker: the leaf's morsel
	pw      *pwRun       // set inside a PartitionWise worker: the claimed partition
	shared  *sharedState // per-run state shared across Exchange workers
	vs      *scratchSet  // set inside an Exchange worker: see takeScratch
	scratch []byte       // reusable composite-key buffer; see keyScratch
}

// keyScratch hands out the context's reusable key buffer (reset to
// zero length), allocating a fresh one when the context has none. An
// operator takes the buffer once at open time and owns it for the
// pipeline's lifetime; the buffer's contents never outlive one key
// computation (map insertion copies the bytes), so nested operators
// each taking their own buffer stay correct — only the first taker
// reuses the context's allocation. Exchange workers clear their copied
// context's buffer so goroutines never share backing arrays.
func (c *Ctx) keyScratch() []byte {
	b := c.scratch
	c.scratch = nil
	if b == nil {
		b = make([]byte, 0, 64)
	}
	return b[:0]
}

// iter is a Volcano-style pull iterator: (nil, nil) signals exhaustion.
type iter func() (store.Row, error)

// Run executes a compiled plan and materializes the output rows. When
// the plan's expressions all vectorize (p.Vec), execution is
// batch-at-a-time over typed column vectors; otherwise the pipeline
// streams row-at-a-time, with individual vectorizable sections still
// running in batches (see openChild). Both modes produce identical
// rows in identical order. A LIMIT without ORDER BY stops reading its
// inputs early in either mode; only sorts, aggregate partitions, join
// build sides and exchange merges buffer. A plan rewritten by
// Parallelize carries its worker degree, picked up here unless the
// caller pinned ctx.Par explicitly.
func Run(p *Plan, ctx *Ctx) ([]store.Row, error) {
	if ctx.Par == 0 {
		ctx.Par = p.Par
	}
	if ctx.Par > 1 && ctx.shared == nil {
		ctx.shared = &sharedState{}
	}
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	var it iter
	var err error
	if !ctx.NoVec && staticVec(p.Root) {
		var op viter
		if op, err = vecOpen(p.Root, ctx); err == nil {
			it = vecIter(op)
		}
	} else {
		it, err = p.Root.open(ctx)
	}
	if err != nil {
		return nil, err
	}
	var rows []store.Row
	for {
		r, err := it()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rows, nil
		}
		rows = append(rows, r)
		if len(rows)%cancelCheckRows == 0 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
		}
	}
}

func errUnknownTable(name string) error {
	return fmt.Errorf("plan: unknown table %q", name)
}

// openChild starts a child operator for a row-at-a-time parent. A
// vectorizable child subtree still executes in batches — its rows are
// materialized at the boundary — so a single non-vectorizable operator
// (a subquery filter, a cross join) only de-vectorizes itself, not its
// inputs. Bare scans are exempt: their row iterators hand out existing
// rows by reference, which beats materializing batch rows.
func openChild(n Node, ctx *Ctx) (iter, error) {
	if !ctx.NoVec && vecGainful(n) && staticVec(n) {
		op, err := vecOpen(n, ctx)
		if err != nil {
			return nil, err
		}
		return vecIter(op), nil
	}
	return n.open(ctx)
}

// vecGainful reports whether running n vectorized under a row-mode
// parent pays for the batch-to-row boundary.
func vecGainful(n Node) bool {
	switch n.(type) {
	case *Scan, *IndexScan:
		return false
	}
	return true
}

func (s *Scan) open(ctx *Ctx) (iter, error) {
	if mr := ctx.part; mr != nil && mr.node == Node(s) {
		return ctxIter(ctx, projectRows(mr.rows, s.B)), nil
	}
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	// A partition-wise worker reads exactly its claimed partition's
	// stream; otherwise bound predicates prune whole partitions before
	// any row is touched.
	if pw := ctx.pw; pw != nil {
		if _, ok := pw.scans[s]; ok {
			if ctx.PartC != nil {
				ctx.PartC.Scanned.Add(1)
			}
			return ctxIter(ctx, projectRows(tab.Part(pw.pi).Rows(), s.B)), nil
		}
	}
	if ranges := s.pruneParts(ctx, tab); ranges != nil {
		return ctxIter(ctx, projectRowRanges(tab.Rows(), ranges, s.B)), nil
	}
	return ctxIter(ctx, projectRows(tab.Rows(), s.B)), nil
}

// probeVals resolves the scan's probe and bounds against the run's
// parameter vector: slot-carrying scans read Ctx.Params, literal scans
// return their baked values.
func (s *IndexScan) probeVals(ctx *Ctx) (eq, lo, hi *store.Value, err error) {
	eq, lo, hi = s.Eq, s.Lo, s.Hi
	at := func(slot int) (*store.Value, error) {
		if slot >= len(ctx.Params) {
			return nil, fmt.Errorf("plan: index scan on %s.%s references unbound parameter $%d",
				s.B.Meta.Name, s.Col, slot+1)
		}
		v := ctx.Params[slot]
		return &v, nil
	}
	if s.EqP >= 0 {
		if eq, err = at(s.EqP); err != nil {
			return nil, nil, nil, err
		}
	}
	if s.LoP >= 0 {
		if lo, err = at(s.LoP); err != nil {
			return nil, nil, nil, err
		}
	}
	if s.HiP >= 0 {
		if hi, err = at(s.HiP); err != nil {
			return nil, nil, nil, err
		}
	}
	return eq, lo, hi, nil
}

// lookupIDs resolves the index probe or range into matching row ids.
func (s *IndexScan) lookupIDs(ctx *Ctx) ([]int, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	eq, lo, hi, err := s.probeVals(ctx)
	if err != nil {
		return nil, err
	}
	// A NULL probe or bound means the consumed conjunct compares
	// against NULL: three-valued logic makes it NULL for every row, so
	// the scan matches nothing. (The optimizer never consumes NULL
	// literals, but a parameter slot can be bound to NULL at run time.)
	if (eq != nil && eq.IsNull()) || (lo != nil && lo.IsNull()) || (hi != nil && hi.IsNull()) {
		return nil, nil
	}
	var ids []int
	var ok bool
	if eq != nil {
		ids, ok = tab.LookupIndex(s.Col, *eq)
	} else {
		ids, ok = tab.LookupRange(s.Col, lo, hi, s.LoIncl, s.HiIncl)
	}
	if !ok {
		return nil, fmt.Errorf("plan: index on %s.%s disappeared after planning",
			s.B.Meta.Name, s.Col)
	}
	return ids, nil
}

// lookupRows resolves the index probe or range into the matching
// (unprojected) rows.
func (s *IndexScan) lookupRows(ctx *Ctx) ([]store.Row, error) {
	ids, err := s.lookupIDs(ctx)
	if err != nil {
		return nil, err
	}
	tab := ctx.Snap.Table(s.B.Meta.Name)
	rows := make([]store.Row, len(ids))
	for i, id := range ids {
		rows[i] = tab.Row(id)
	}
	return rows, nil
}

func (s *IndexScan) open(ctx *Ctx) (iter, error) {
	if mr := ctx.part; mr != nil && mr.node == Node(s) {
		return ctxIter(ctx, projectRows(mr.rows, s.B)), nil
	}
	rows, err := s.lookupRows(ctx)
	if err != nil {
		return nil, err
	}
	return ctxIter(ctx, projectRows(rows, s.B)), nil
}

// projectRows iterates rows narrowed to the binding's retained columns
// (zero-copy when nothing was pruned).
func projectRows(rows []store.Row, b Binding) iter {
	full := len(b.Cols) == len(b.Meta.Columns)
	i := 0
	return func() (store.Row, error) {
		if i >= len(rows) {
			return nil, nil
		}
		r := rows[i]
		i++
		if full {
			return r, nil
		}
		out := make(store.Row, len(b.Cols))
		for p, ci := range b.Cols {
			out[p] = r[ci]
		}
		return out, nil
	}
}

func (f *Filter) open(ctx *Ctx) (iter, error) {
	in, err := openChild(f.In, ctx)
	if err != nil {
		return nil, err
	}
	frame := &Frame{Rel: f.In.Rel(), Parent: ctx.Parent}
	return func() (store.Row, error) {
		for {
			r, err := in()
			if err != nil || r == nil {
				return nil, err
			}
			frame.Row = r
			v, err := ctx.Ev.Eval(frame, f.Pred)
			if err != nil {
				return nil, err
			}
			if IsTrue(v) {
				return r, nil
			}
		}
	}, nil
}

// buildTable materializes and hashes the join's right input. Inside a
// parallel run the table is built exactly once (the first worker to
// arrive builds, the rest wait on the entry's once) and then probed
// concurrently; large build inputs hash through per-worker partial
// tables merged in chunk order, so the per-key row order — and with it
// the probe output order — is identical to a serial build.
func (j *HashJoin) buildTable(ctx *Ctx) (map[string][]store.Row, error) {
	if ctx.shared == nil {
		return j.build(ctx)
	}
	e := ctx.shared.entry(j)
	e.once.Do(func() { e.table, e.err = j.build(ctx) })
	return e.table, e.err
}

func (j *HashJoin) build(ctx *Ctx) (map[string][]store.Row, error) {
	rows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Par > 1 && len(rows) >= minParallelRows {
		return parallelHash(rows, j.RKey, ctx.Par), nil
	}
	table := map[string][]store.Row{}
	buf := ctx.keyScratch()
	for _, r := range rows {
		if k, ok := appendJoinKey(buf[:0], r, j.RKey); ok {
			buf = k
			table[string(k)] = append(table[string(k)], r)
		}
	}
	return table, nil
}

func (j *HashJoin) open(ctx *Ctx) (iter, error) {
	table, err := j.buildTable(ctx)
	if err != nil {
		return nil, err
	}
	// Probe side streams. The scratch buffer makes probes
	// allocation-free: the map lookup over string(buf) does not copy.
	lit, err := openChild(j.L, ctx)
	if err != nil {
		return nil, err
	}
	width := j.rel.Width
	buf := ctx.keyScratch()
	var matches []store.Row
	var lrow store.Row
	mi := 0
	return func() (store.Row, error) {
		for {
			if mi < len(matches) {
				r := concatRow(lrow, matches[mi], width)
				mi++
				return r, nil
			}
			var err error
			lrow, err = lit()
			if err != nil || lrow == nil {
				return nil, err
			}
			if k, ok := appendJoinKey(buf[:0], lrow, j.LKey); ok {
				buf = k
				matches, mi = table[string(k)], 0
			} else {
				matches, mi = nil, 0
			}
		}
	}, nil
}

// appendJoinKey appends the composite hash key of r at offs to buf;
// ok is false when any key value is NULL (such rows never match, SQL
// equality semantics). The returned slice is buf extended — callers
// reuse it as a scratch buffer across rows.
func appendJoinKey(buf []byte, r store.Row, offs []int) ([]byte, bool) {
	for _, o := range offs {
		v := r[o]
		if v.IsNull() {
			return buf, false
		}
		buf = v.AppendKey(buf)
		buf = append(buf, '\x1f')
	}
	return buf, true
}

func (j *CrossJoin) open(ctx *Ctx) (iter, error) {
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	if len(lrows)*len(rrows) > MaxProduct {
		name := j.R.Rel().Bindings[0].Meta.Name
		return nil, fmt.Errorf("plan: join of %s would produce over %d rows; add a join condition",
			name, MaxProduct)
	}
	width := j.rel.Width
	li, ri := 0, 0
	return func() (store.Row, error) {
		for {
			if li >= len(lrows) {
				return nil, nil
			}
			if ri >= len(rrows) {
				li++
				ri = 0
				continue
			}
			r := concatRow(lrows[li], rrows[ri], width)
			ri++
			return r, nil
		}
	}, nil
}

func drain(n Node, ctx *Ctx) ([]store.Row, error) {
	it, err := openChild(n, ctx)
	if err != nil {
		return nil, err
	}
	var rows []store.Row
	for {
		r, err := it()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rows, nil
		}
		rows = append(rows, r)
		if len(rows)%cancelCheckRows == 0 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
		}
	}
}

func concatRow(l, r store.Row, width int) store.Row {
	row := make(store.Row, 0, width)
	row = append(row, l...)
	return append(row, r...)
}

func (p *Project) open(ctx *Ctx) (iter, error) {
	in, err := openChild(p.In, ctx)
	if err != nil {
		return nil, err
	}
	frame := &Frame{Rel: p.In.Rel(), Parent: ctx.Parent}
	n := len(p.Items) + len(p.SortKeys)
	return func() (store.Row, error) {
		r, err := in()
		if err != nil || r == nil {
			return nil, err
		}
		frame.Row = r
		out := make(store.Row, n)
		for i, e := range p.Items {
			if out[i], err = ctx.Ev.Eval(frame, e); err != nil {
				return nil, err
			}
		}
		for i, e := range p.SortKeys {
			if out[len(p.Items)+i], err = ctx.Ev.Eval(frame, e); err != nil {
				return nil, err
			}
		}
		return out, nil
	}, nil
}

// appendGroupKey evaluates the GROUP BY expressions over the frame's
// row, appending the composite partition key to buf (a reusable
// scratch buffer owned by the caller — parallel group workers each
// pass their own).
func (a *Aggregate) appendGroupKey(ctx *Ctx, frame *Frame, buf []byte) ([]byte, error) {
	for _, ge := range a.GroupBy {
		v, err := ctx.Ev.Eval(frame, ge)
		if err != nil {
			return buf, err
		}
		buf = v.AppendKey(buf)
		buf = append(buf, '\x1f')
	}
	return buf, nil
}

// evalGroup applies HAVING and evaluates the output items (plus
// trailing sort keys) for one group; keep is false when HAVING
// rejected it.
func (a *Aggregate) evalGroup(ctx *Ctx, g *Group) (row store.Row, keep bool, err error) {
	if a.Having != nil {
		v, err := ctx.Ev.EvalGroup(g, a.Having)
		if err != nil {
			return nil, false, err
		}
		if !IsTrue(v) {
			return nil, false, nil
		}
	}
	out := make(store.Row, len(a.Items)+len(a.SortKeys))
	for i, e := range a.Items {
		if out[i], err = ctx.Ev.EvalGroup(g, e); err != nil {
			return nil, false, err
		}
	}
	for i, e := range a.SortKeys {
		if out[len(a.Items)+i], err = ctx.Ev.EvalGroup(g, e); err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

func (a *Aggregate) open(ctx *Ctx) (iter, error) {
	rel := a.In.Rel()
	input, err := drain(a.In, ctx)
	if err != nil {
		return nil, err
	}

	var groups []*Group
	switch {
	case len(a.GroupBy) == 0:
		// The global group exists even over empty input.
		groups = []*Group{{Rel: rel, Rows: input, Parent: ctx.Parent}}
	case ctx.Par > 1 && len(input) >= minParallelRows:
		if groups, err = a.parallelGroups(ctx, rel, input, ctx.Par); err != nil {
			return nil, err
		}
	default:
		frame := &Frame{Rel: rel, Parent: ctx.Parent}
		byKey := map[string]*Group{}
		var order []string
		buf := ctx.keyScratch()
		for _, r := range input {
			frame.Row = r
			k, err := a.appendGroupKey(ctx, frame, buf[:0])
			if err != nil {
				return nil, err
			}
			buf = k
			g, ok := byKey[string(k)]
			if !ok {
				g = &Group{Rel: rel, Parent: ctx.Parent}
				byKey[string(k)] = g
				order = append(order, string(k))
			}
			g.Rows = append(g.Rows, r)
		}
		for _, k := range order {
			groups = append(groups, byKey[k])
		}
	}

	if ctx.Par > 1 && len(groups) >= minParallelGroups {
		rows, err := a.evalGroups(ctx, groups, ctx.Par)
		if err != nil {
			return nil, err
		}
		i := 0
		return func() (store.Row, error) {
			if i >= len(rows) {
				return nil, nil
			}
			r := rows[i]
			i++
			return r, nil
		}, nil
	}

	gi := 0
	return func() (store.Row, error) {
		for {
			if gi >= len(groups) {
				return nil, nil
			}
			g := groups[gi]
			gi++
			row, keep, err := a.evalGroup(ctx, g)
			if err != nil {
				return nil, err
			}
			if keep {
				return row, nil
			}
		}
	}, nil
}

func (d *Distinct) open(ctx *Ctx) (iter, error) {
	in, err := openChild(d.In, ctx)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	buf := ctx.keyScratch()
	return func() (store.Row, error) {
		for {
			r, err := in()
			if err != nil || r == nil {
				return nil, err
			}
			buf = appendPrefixKey(buf[:0], r, d.N)
			if seen[string(buf)] {
				continue
			}
			seen[string(buf)] = true
			return r, nil
		}
	}, nil
}

// appendPrefixKey appends the composite key of the first n values of r
// to buf (the DISTINCT dedup key).
func appendPrefixKey(buf []byte, r store.Row, n int) []byte {
	for i := 0; i < n && i < len(r); i++ {
		buf = r[i].AppendKey(buf)
		buf = append(buf, '\x1f')
	}
	return buf
}

func (s *Sort) open(ctx *Ctx) (iter, error) {
	rows, err := drain(s.In, ctx)
	if err != nil {
		return nil, err
	}
	keep := s.Keep
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range s.Keys {
			c := store.Compare(a[keep+k], b[keep+k])
			if c == 0 {
				continue
			}
			if s.Keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	i := 0
	return func() (store.Row, error) {
		if i >= len(rows) {
			return nil, nil
		}
		r := rows[i][:keep]
		i++
		return r, nil
	}, nil
}

func (l *Limit) open(ctx *Ctx) (iter, error) {
	if l.N <= 0 {
		return func() (store.Row, error) { return nil, nil }, nil
	}
	in, err := openChild(l.In, ctx)
	if err != nil {
		return nil, err
	}
	left := l.N
	return func() (store.Row, error) {
		if left <= 0 {
			return nil, nil
		}
		r, err := in()
		if err != nil || r == nil {
			return nil, err
		}
		left--
		return r, nil
	}, nil
}
