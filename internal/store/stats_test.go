package store

import (
	"testing"

	"repro/internal/schema"
)

func statsFixture(t *testing.T) *Table {
	t.Helper()
	tab := NewTable(&schema.Table{
		Name: "m",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "v", Type: schema.Float},
		},
	})
	vals := []Value{Float(3), Float(1), Null(), Float(2), Float(2)}
	for i, v := range vals {
		if err := tab.Insert(Int(int64(i+1)), v); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestColStats(t *testing.T) {
	tab := statsFixture(t)
	s, ok := tab.Snap().Stats("v")
	if !ok {
		t.Fatal("no stats for v")
	}
	if s.Rows != 5 || s.Nulls != 1 || s.Distinct != 3 {
		t.Errorf("stats = %+v", s)
	}
	if _, ok := tab.Snap().Stats("nosuch"); ok {
		t.Error("stats for unknown column")
	}

	// Insert invalidates the cache.
	if err := tab.Insert(Int(6), Float(9)); err != nil {
		t.Fatal(err)
	}
	s, _ = tab.Snap().Stats("v")
	if s.Rows != 6 || s.Distinct != 4 {
		t.Errorf("stats not refreshed after insert: %+v", s)
	}
}
