// Package skipadvisory is a fixture for the zone-map contract: skips
// are derived only by zonePreds, the deriving conjuncts must reach an
// And(...) (the Filter construction), and only the advisory consumers
// may read the skip set.
package skipadvisory

type Expr interface{}

type ZonePred struct{ Col string }

type Scan struct {
	Table string
	Skips []ZonePred
}

type binder struct{}

func zonePreds(b *binder, conjs []Expr) []ZonePred { return nil }

func bindZonePreds(skips []ZonePred, params []Expr) []ZonePred { return skips }

func segScanStats(b *binder, skips []ZonePred) (int64, int64) { return 0, 0 }

func And(conjs ...Expr) Expr { return nil }

// The sanctioned shape: derive from the leftover conjuncts, re-enforce
// the same conjuncts through And, consume advisorily.
func good(b *binder, conjs []Expr, params []Expr) *Scan {
	sc := &Scan{Table: "events"}
	sc.Skips = zonePreds(b, conjs)
	_ = And(conjs...)
	bound := bindZonePreds(sc.Skips, params)
	_ = bound
	n, skip := segScanStats(b, sc.Skips)
	_, _ = n, skip
	return sc
}

func goodLiteral(b *binder, conjs []Expr) Scan {
	s := Scan{Skips: zonePreds(b, conjs)}
	_ = And(conjs...)
	return s
}

// Face 1: Skips assigned anything but zonePreds(...).
func assignRaw(sc *Scan, preds []ZonePred) {
	sc.Skips = preds // want "may only be assigned the result of zonePreds"
}

func assignAppend(b *binder, conjs []Expr, sc *Scan, extra ZonePred) {
	sc.Skips = append(zonePreds(b, conjs), extra) // want "may only be assigned the result of zonePreds"
}

func literalRaw(preds []ZonePred) Scan {
	return Scan{Skips: preds} // want "may only be assigned the result of zonePreds"
}

func mutate(sc *Scan, p ZonePred) {
	sc.Skips[0] = p // want "must not be mutated after derivation"
}

// Face 2: deriving without re-enforcing the conjuncts.
func skipWithoutFilter(b *binder, conjs []Expr) *Scan {
	sc := &Scan{}
	sc.Skips = zonePreds(b, conjs) // want "not re-enforced by a Filter"
	return sc
}

// Face 3: reading the skip set outside the advisory consumers.
func enforceFromSkips(sc *Scan) int {
	return len(sc.Skips) // want "may only be consumed by bindZonePreds/segScanStats"
}
