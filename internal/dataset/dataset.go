// Package dataset provides the three deterministic synthetic domains
// the system is evaluated on, standing in for the unavailable original
// domain databases (see DESIGN.md § Substitutions):
//
//   - university: the entity-attribute schema early NLIDBs targeted
//     (students, instructors, courses, departments, enrollments)
//   - geo: world geography facts (the LUNAR/GEOBASE lineage)
//   - sales: a reporting star schema (the business-analytics workload)
//
// All generators are seeded and fully deterministic, so every
// experiment in EXPERIMENTS.md regenerates byte-identical databases.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/store"
)

// Names lists the available datasets.
func Names() []string { return []string{"university", "geo", "sales"} }

// ByName loads a dataset at the given scale (geo ignores scale; its
// facts are fixed).
func ByName(name string, scale int) (*store.DB, error) {
	switch name {
	case "university":
		return University(scale), nil
	case "geo":
		return Geo(), nil
	case "sales":
		return Sales(scale), nil
	case "events":
		// The telemetry event log; scale is in units of 100K rows. Not
		// in Names() because it has no NL benchmark corpus — it exists
		// for the storage tests.
		return Events(mustPositive(scale) * 100_000), nil
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
}

// rng returns the deterministic random source used by all generators.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var firstNames = []string{
	"Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "John",
	"Leslie", "Tony", "Edgar", "Frances", "Ken", "Dennis", "Bjarne",
	"Niklaus", "Robin", "Radia", "Margaret", "Katherine", "Annie",
	"Tim", "Vint", "Linus", "Guido", "James", "Brendan", "Anders",
	"Rob", "Brian", "Doug",
}

var lastNames = []string{
	"Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth",
	"McCarthy", "Lamport", "Hoare", "Codd", "Allen", "Thompson",
	"Ritchie", "Stroustrup", "Wirth", "Milner", "Perlman", "Hamilton",
	"Johnson", "Easley", "Berners-Lee", "Cerf", "Torvalds", "Rossum",
	"Gosling", "Eich", "Hejlsberg", "Pike", "Kernighan", "McIlroy",
}

// PersonName exposes the deterministic name generator so the benchmark
// corpus can reference people that exist in the generated data.
func PersonName(i int) string { return personName(i) }

// personName returns a deterministic unique-ish full name for index i.
func personName(i int) string {
	f := firstNames[i%len(firstNames)]
	l := lastNames[(i/len(firstNames))%len(lastNames)]
	if n := i / (len(firstNames) * len(lastNames)); n > 0 {
		return fmt.Sprintf("%s %s %d", f, l, n+1)
	}
	return f + " " + l
}

func mustPositive(scale int) int {
	if scale < 1 {
		return 1
	}
	return scale
}

// loader buffers generated rows per table and bulk-inserts each table
// once: the store's bulk path publishes one version per table instead
// of one per generated row.
type loader struct {
	db    *store.DB
	rows  map[string][]store.Row
	order []string
}

func newLoader(db *store.DB) *loader {
	return &loader{db: db, rows: map[string][]store.Row{}}
}

func (l *loader) add(table string, vals ...store.Value) {
	if _, ok := l.rows[table]; !ok {
		l.order = append(l.order, table)
	}
	l.rows[table] = append(l.rows[table], store.Row(vals))
}

// flush bulk-inserts every buffered table, in first-use order so
// generation stays deterministic.
func (l *loader) flush() {
	for _, table := range l.order {
		l.db.MustBulkInsert(table, l.rows[table])
	}
	l.rows = map[string][]store.Row{}
	l.order = nil
}
