// Package batchretain is a fixture for the zero-copy batch contract.
// The container types (vcol, vbatch, colbuf, SegCol) are matched by
// name, so the fixture declares local stand-ins with slice-typed
// payload fields.
package batchretain

type vcol struct {
	ints []int64
}

type vbatch struct {
	cols []vcol
	sel  []int
}

type colbuf struct {
	ints []int64
}

type SegCol struct {
	Ints []int64
}

// op is a long-lived operator: storing a view into its fields retains
// the view across Next calls.
type op struct {
	cache []int64
	picks []int
}

type result struct {
	data []int64
}

var global []int

func retainInField(b *vbatch, o *op) {
	o.cache = b.cols[0].ints // want "stored into a struct field"
}

func retainResliced(b *vbatch, o *op) {
	o.picks = b.sel[1:] // want "stored into a struct field"
}

func retainSegWindow(sc *SegCol, o *op) {
	o.cache = sc.Ints[2:8] // want "stored into a struct field"
}

func retainGlobal(b *vbatch) {
	global = b.sel // want "stored into package-level global"
}

func retainCaptured(b *vbatch) func() int {
	var keep []int
	f := func() int {
		keep = b.sel // want "captured into keep"
		return len(keep)
	}
	return f
}

func retainInLiteral(b *vbatch) result {
	return result{data: b.cols[0].ints} // want "stored into a result literal"
}

// Copies and batch-internal plumbing are fine.
func good(b *vbatch, sc *SegCol, o *op, c *colbuf) {
	local := b.cols[0].ints // local to one Next call
	_ = local

	o.cache = append([]int64(nil), b.cols[0].ints...) // explicit copy

	c.ints = sc.Ints[0:4] // building a batch container out of a view

	v := vcol{ints: sc.Ints[4:8]} // view into a view container
	_ = v

	f := func() int {
		inner := b.sel // declared inside the closure: one call's scope
		return len(inner)
	}
	_ = f()
}

// A whole batch is lent, and nobody keeps it: its header, null masks
// and selection are the producer's again at the next pull, so holding
// one is always a finding, a pull's result held directly included.
type merge struct {
	last *vbatch
	outs [][]*vbatch
}

func retainPulled(pull func() *vbatch, m *merge) []*vbatch {
	var kept []*vbatch
	for b := pull(); b != nil; b = pull() {
		kept = append(kept, b) // want "appended to a slice"
		m.last = b             // want "stored in a field or element"
		m.outs[0][0] = b       // want "stored in a field or element"
	}
	kept = append(kept, pull()) // want "appended to a slice"
	m.last = pull()             // want "stored in a field or element"
	return kept
}

// Copying the rows a batch selects, and holding it only for one pull,
// are fine.
func copyPulled(pull func() *vbatch, m *merge, c *colbuf) {
	for b := pull(); b != nil; b = pull() {
		c.ints = append(c.ints, b.cols[0].ints...) // the rows, copied into a builder
		cur := b                                   // local to one pull
		_ = cur
	}
	m.outs[0] = nil
	m.last = &vbatch{} // its own batch
	m.last = nil
}
