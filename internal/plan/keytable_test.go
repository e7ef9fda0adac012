package plan

import (
	"math"
	"slices"
	"testing"

	"repro/internal/store"
)

// TestKeyTableCollisions hands every key the same hash, so all of them
// share one chain and only the key comparison tells them apart. A
// keySet over (FLOAT, TEXT) pairs must number them in first-seen order
// under key equality — NULL equals NULL, NaN equals NaN, −0.0 equals
// 0.0, INT 3 equals FLOAT 3.0, a dictionary column's strings equal a
// plain column's — and keep every id through its doublings. A join's
// keyTable, chained last row to first, must return every equal build
// row in ascending order and no row with an unequal key.
func TestKeyTableCollisions(t *testing.T) {
	const h = 0x5eed
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	floats := func(vs []float64, nulls ...int) vcol {
		c := vcol{kind: store.KindFloat, floats: vs}
		for _, i := range nulls {
			if c.nulls == nil {
				c.nulls = make([]bool, len(vs))
			}
			c.nulls[i] = true
		}
		return c
	}
	show := func(s *keySet, keys []vcol) (ids []int, fresh []bool) {
		for i := range keys[0].floats {
			id, isNew := s.id(keys, i, h)
			ids, fresh = append(ids, id), append(fresh, isNew)
		}
		return ids, fresh
	}

	var s keySet
	s.init([]vcol{{kind: store.KindFloat}, {kind: store.KindText}})
	// The text of the first batch comes through a dictionary, the
	// second's as plain strings.
	dictBatch := []vcol{floats([]float64{0, nan, negZero, 3, nan, 0, 0}, 0, 6),
		{kind: store.KindText, codes: []uint16{0, 0, 1, 0, 1, 1, 0}, dict: []string{"a", "b"}}}
	plainBatch := []vcol{floats([]float64{0, nan, 3, 0, 3, 0}, 3, 5),
		{kind: store.KindText, strs: []string{"b", "b", "a", "a", "b", "b"}}}
	ids, fresh := show(&s, dictBatch)
	if want := []int{0, 1, 2, 3, 4, 2, 0}; !slices.Equal(ids, want) {
		t.Errorf("dictionary batch: ids %v, want %v", ids, want)
	}
	if want := []bool{true, true, true, true, true, false, false}; !slices.Equal(fresh, want) {
		t.Errorf("dictionary batch: new %v, want %v", fresh, want)
	}
	ids, fresh = show(&s, plainBatch)
	if want := []int{2, 4, 3, 0, 5, 6}; !slices.Equal(ids, want) {
		t.Errorf("plain batch: ids %v, want %v", ids, want)
	}
	if want := []bool{false, false, false, false, true, true}; !slices.Equal(fresh, want) {
		t.Errorf("plain batch: new %v, want %v", fresh, want)
	}
	if !math.Signbit(s.keys[0].floats[2]) {
		t.Errorf("key 2 holds %v, want the −0.0 it was first seen as", s.keys[0].floats[2])
	}

	// 100 more keys double the initial 8 buckets four times; shown
	// again, every key keeps its id.
	const more = 100
	manyF, manyS := make([]float64, more), make([]string, more)
	for i := range more {
		manyF[i], manyS[i] = float64(i)+0.5, "a"
	}
	manyBatch := []vcol{floats(manyF), {kind: store.KindText, strs: manyS}}
	for round := range 2 {
		ids, fresh = show(&s, manyBatch)
		for i, id := range ids {
			if id != 7+i || fresh[i] != (round == 0) {
				t.Fatalf("round %d, key %v: id %d (new %v), want %d", round, manyF[i], id, fresh[i], 7+i)
			}
		}
	}
	if len(s.head) < 8<<3 || len(s.hs) != 7+more {
		t.Fatalf("%d keys in %d buckets, want %d keys after at least 3 doublings", len(s.hs), len(s.head), 7+more)
	}
	for _, batch := range [][]vcol{dictBatch, plainBatch} {
		if _, fresh := show(&s, batch); slices.Contains(fresh, true) {
			t.Errorf("after doubling, a key seen before is new again: %v", fresh)
		}
	}
	// find compares across kinds and skips an equal hash whose key
	// differs in either column.
	int3 := vcol{kind: store.KindInt, ints: []int64{3}}
	for _, c := range []struct {
		text string
		want int32
	}{{"a", 3 + 1}, {"b", 5 + 1}, {"c", 0}} {
		if e := s.find(h, 0, []vcol{int3, {kind: store.KindText, strs: []string{c.text}}}, 0); e != c.want {
			t.Errorf("find(INT 3, %q) = %d, want %d", c.text, e, c.want)
		}
	}

	// A join's build side: rows 0, 2 and 5 hold 3.0, row 3 is NULL.
	build := []vcol{floats([]float64{3, 1, 3, 0, negZero, 3, nan}, 3)}
	kt := keyTable{keys: build, hs: make([]uint64, 7), head: make([]int32, 8), next: make([]int32, 7)}
	for r := range kt.hs {
		kt.hs[r] = h
	}
	for r := 6; r >= 0; r-- {
		if !nullKey(build, r) {
			kt.link(r)
		}
	}
	probes := []struct {
		name string
		key  vcol
		want []int32
	}{
		{"INT 3", int3, []int32{0, 2, 5}},
		{"INT 0", vcol{kind: store.KindInt, ints: []int64{0}}, []int32{4}},
		{"INT 2", vcol{kind: store.KindInt, ints: []int64{2}}, nil},
		{"NaN", floats([]float64{nan}), []int32{6}},
		{"NULL", floats([]float64{0}, 0), nil},
	}
	for _, p := range probes {
		var rows []int32
		keys := []vcol{p.key}
		for e := kt.find(h, 0, keys, 0); e != 0; e = kt.find(h, e, keys, 0) {
			rows = append(rows, e-1)
		}
		if !slices.Equal(rows, p.want) {
			t.Errorf("probe %s: build rows %v, want %v", p.name, rows, p.want)
		}
	}
}
