// Package suppress exercises the //nlivet:ignore directive: valid
// directives (same line or the line above, with an analyzer name and
// a reason) silence a finding; malformed ones are findings themselves
// and silence nothing. The expected totals are asserted explicitly in
// TestSuppression rather than via want comments, because the
// directive occupies the line comment slot.
package suppress

import "sync/atomic"

type counter struct{ n int64 }

// bump makes counter.n an atomic field, so every plain read below is an
// atomicfield finding.
func bump(c *counter) { atomic.AddInt64(&c.n, 1) }

func suppressedAbove(c *counter) int64 {
	//nlivet:ignore atomicfield this probe tolerates a torn read deliberately
	return c.n
}

func suppressedSameLine(c *counter) int64 {
	return c.n //nlivet:ignore atomicfield single-threaded probe
}

func missingReason(c *counter) int64 {
	return c.n //nlivet:ignore atomicfield
}

func unknownAnalyzer(c *counter) int64 {
	return c.n //nlivet:ignore nosuchcheck because reasons
}

func bareDirective(c *counter) int64 {
	return c.n //nlivet:ignore
}
