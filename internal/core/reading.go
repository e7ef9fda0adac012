package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/grammar"
	"repro/internal/semindex"
	"repro/internal/store"
	"repro/internal/strutil"
)

// Parser is the engine's grammar with the reading cache in front of
// its complete-question parse: Engine.G. The cache, Parser.readings, is
// the third instance of versioned. It maps the shape of an annotated
// question to the candidates the grammar parsed from it, so that a
// question repeating a shape with new numbers ("students with gpa over
// 3.2", then "... over 3.7") skips the parse and pays a clone and a
// bind; ranking, SQL generation and everything after run as for a
// parsed question. The cache sits under ParsePrepared, not beside it,
// so that whatever reads a question through the engine's grammar —
// Engine.interpret, or a caller timing the layers one by one — parses,
// hits and learns alike. Parse, promoted from grammar.Grammar, does
// not go through it.
//
// A shape is a grammar.Prepared with its slot tokens abstracted: a
// slot is a Number token no annotation covers, and it enters the key as
// its kind alone, its value lifted out. Every other token keeps its
// text — words, quotes, scale words ("million"), spelled numbers,
// value words — and every field of every annotation is in the key, so
// two questions with one key reach the parser as the same input up to
// the slots' numbers. Candidates depend on nothing else but the
// grammar, which is the engine's for life, so an entry carries no table
// dependencies.
//
// The parser treats a number as an opaque payload: it copies it into a
// condition (store.Float), a BETWEEN bound or a HAVING count, and
// except for LIMIT's int(n) and a scale word's product it never
// branches on it or transforms it. An entry is learnt, on the first
// miss of its shape, by parsing the shape once more with a distinct
// sentinel number in each slot; the candidates that come out hold each
// sentinel where its slot's number goes, and a hit binds by replacing
// each sentinel through iql.Query.MapNumbers, the one walk over the
// numbers a query holds. The entry keeps them as a
// template only if binding the miss's real numbers into it reproduces
// the real candidates exactly, scores included. That check catches
// every place a number is transformed rather than copied — a LIMIT,
// "1.5 million" — and the shape is then stored as not bindable, so
// later asks parse without learning it again.
//
// The grammar dedupes candidates by their printed form, so numbers that
// print alike could merge two candidates the sentinels kept apart. A
// hit therefore needs slot values that are pairwise distinct and
// distinct from every numeric constant the template holds that no slot
// supplies (reading.lits); otherwise the ask parses, as it does when
// the question's own numbers repeat ("between 5 and 5").
type Parser struct {
	*grammar.Grammar
	readings *versioned[*reading] // nil when PlanCacheSize is 0

	// served counts the complete-question reads a template answered,
	// parsed those that parsed while the cache was on.
	served, parsed atomic.Uint64
}

// ParsePrepared parses p as a complete question, through the reading
// cache.
func (g *Parser) ParsePrepared(p grammar.Prepared) []grammar.Candidate {
	cands, _ := g.parse(p)
	return cands
}

// parse is ParsePrepared that also reports whether the candidates were
// bound from the reading cache.
func (g *Parser) parse(p grammar.Prepared) (cands []grammar.Candidate, cached bool) {
	var key []byte
	var vals []float64
	learn := false
	if g.readings != nil {
		var buf [512]byte // a typical question's key fits: a hit puts no key on the heap
		var vbuf [8]float64
		key, vals = appendReadingKey(buf[:0], vbuf[:0], p)
		if distinct(vals) {
			r, ok := g.readings.lookup(key, noVersions)
			if ok && r.serves(vals) {
				g.served.Add(1)
				return r.bind(vals), true
			}
			learn = !ok
		}
		g.parsed.Add(1)
	}
	cands = g.Grammar.ParsePrepared(p)
	if learn && len(cands) > 0 {
		if r := g.learn(p, vals, cands); r != nil {
			g.readings.store(string(key), nil, r)
		}
	}
	return cands, false
}

// noVersions is the version function reading-cache lookups pass: an
// entry has no table dependencies, so it is never called.
func noVersions(string) uint64 { return 0 }

// reading is one reading-cache entry.
type reading struct {
	// cands is the template: the shape's candidates, best first, with
	// sentinel(k) wherever slot k's number goes. nil marks a shape that
	// is not bindable.
	cands []grammar.Candidate
	lits  []float64 // numbers the template holds that no slot supplies
}

// sentinel is the number parsed in slot k when an entry is learnt: far
// from the numbers questions use, non-integral so that a LIMIT's int(n)
// cannot pass for it, and exact in binary so that it survives the
// token text round trip.
func sentinel(k int) float64 { return 918273.5 + float64(k) }

// slotOf returns the slot of n whose sentinel x is, or -1.
func slotOf(x float64, n int) int {
	for k := range n {
		if x == sentinel(k) {
			return k
		}
	}
	return -1
}

// coverage walks a Prepared's tokens in order and reports which lie
// inside an annotation's span; Anns is ordered by Start.
type coverage struct {
	anns   []semindex.Annotation
	next   int
	covEnd int
}

// covers reports whether token i is inside an annotation. Calls must
// come in increasing i.
func (c *coverage) covers(i int) bool {
	for c.next < len(c.anns) && c.anns[c.next].Start <= i {
		c.covEnd = max(c.covEnd, c.anns[c.next].End)
		c.next++
	}
	return i < c.covEnd
}

// appendReadingKey appends the reading-cache key of p to dst and the
// numbers of its slots to vals. Strings are length-prefixed, so no two
// shapes share a key.
func appendReadingKey(dst []byte, vals []float64, p grammar.Prepared) ([]byte, []float64) {
	dst = binary.AppendUvarint(dst, uint64(len(p.Toks)))
	cov := coverage{anns: p.Anns}
	for i, t := range p.Toks {
		dst = binary.AppendUvarint(dst, uint64(t.Kind))
		if t.Kind == strutil.Number && !cov.covers(i) {
			v, _ := strutil.ParseNumber(t.Lower) // as the grammar's number parser reads it
			vals = append(vals, v)
			continue
		}
		dst = appendKeyString(appendKeyString(dst, t.Lower), t.Text)
	}
	for _, a := range p.Anns {
		dst = binary.AppendUvarint(dst, uint64(a.Start))
		dst = binary.AppendUvarint(dst, uint64(a.End))
		dst = binary.AppendUvarint(dst, uint64(a.Kind))
		dst = appendKeyString(appendKeyString(dst, a.Table), a.Column)
		dst = append(dst, byte(a.Value.Kind()))
		switch a.Value.Kind() {
		case store.KindInt:
			dst = binary.AppendVarint(dst, a.Value.Int64())
		case store.KindFloat:
			f, _ := a.Value.AsFloat()
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		case store.KindText:
			dst = appendKeyString(dst, a.Value.Str())
		case store.KindBool:
			dst = strconv.AppendBool(dst, a.Value.BoolVal())
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.Score))
		dst = appendKeyString(dst, a.Surface)
	}
	return dst, vals
}

func appendKeyString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// sentinelPrepared is p with sentinel(k) in slot k and p's own
// annotations.
func sentinelPrepared(p grammar.Prepared) grammar.Prepared {
	toks := slices.Clone(p.Toks)
	cov := coverage{anns: p.Anns}
	k := 0
	for i, t := range toks {
		if t.Kind == strutil.Number && !cov.covers(i) {
			s := strconv.FormatFloat(sentinel(k), 'f', -1, 64)
			toks[i] = strutil.Token{Text: s, Lower: s, Kind: strutil.Number, Pos: t.Pos}
			k++
		}
	}
	return grammar.Prepared{Toks: toks, Anns: p.Anns}
}

// distinct reports whether no two of vals are equal.
func distinct(vals []float64) bool {
	for i, v := range vals {
		if slices.Contains(vals[i+1:], v) {
			return false
		}
	}
	return true
}

// learn builds the entry of a shape whose slots held vals, from the
// candidates real that parsing it gave, or returns nil when vals cannot
// tell the slots apart from the sentinels and nothing should be stored.
func (g *Parser) learn(p grammar.Prepared, vals []float64, real []grammar.Candidate) *reading {
	if len(vals) == 0 {
		// The template is a copy of real, so that nothing the caller
		// does to its candidates reaches the cache.
		return &reading{cands: (&reading{cands: real}).bind(nil)}
	}
	// A number within 1 of a sentinel could transform like it (a
	// LIMIT's int(n)) and pass the check below by coincidence.
	for _, v := range vals {
		if v > sentinel(0)-1 && v < sentinel(len(vals)-1)+1 {
			return nil
		}
	}
	r := &reading{cands: g.Grammar.ParsePrepared(sentinelPrepared(p))}
	// Every other number the template holds took part in the grammar's
	// dedupe too.
	lit := func(x float64) {
		if slotOf(x, len(vals)) < 0 && !slices.Contains(r.lits, x) {
			r.lits = append(r.lits, x)
		}
	}
	for _, c := range r.cands {
		c.Query.MapNumbers(func(x float64) (float64, bool) {
			lit(x)
			return x, false
		})
		if o := c.Query.Order; o != nil && o.Limit > 0 {
			lit(float64(o.Limit))
		}
	}
	if !reflect.DeepEqual(r.bind(vals), real) {
		return &reading{}
	}
	return r
}

// serves reports whether the entry can stand in for parsing a question
// of its shape whose slots hold vals.
func (r *reading) serves(vals []float64) bool {
	if r.cands == nil {
		return false
	}
	for _, v := range vals {
		if slices.Contains(r.lits, v) {
			return false
		}
	}
	return true
}

// bind returns the template's candidates with vals in the slots: each
// query cloned, so the caller owns what it is handed, and every
// sentinel(k) in it replaced by vals[k]. A sentinel is in the template
// only where its slot's number went.
func (r *reading) bind(vals []float64) []grammar.Candidate {
	out := make([]grammar.Candidate, len(r.cands))
	for i, c := range r.cands {
		c.Query = c.Query.Clone()
		c.Query.MapNumbers(func(x float64) (float64, bool) {
			if k := slotOf(x, len(vals)); k >= 0 {
				return vals[k], true
			}
			return x, false
		})
		out[i] = c
	}
	return out
}
