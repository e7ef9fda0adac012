package dataset

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/store"
)

// EventsSchema returns the single-table telemetry schema the segment
// tests and benchmarks read (TestClusteredScanSpeedup among them): a
// wide append-only event log whose columns exhibit the distributions
// segment encodings target — a clustered monotonic timestamp (zone
// maps + FOR), low-cardinality strings (dictionary), narrow ints (FOR),
// and a float measure.
func EventsSchema() *schema.Schema {
	return schema.MustNew("events", []*schema.Table{
		{
			Name:       "events",
			PrimaryKey: "event_id",
			Synonyms:   []string{"event", "log", "record"},
			Columns: []schema.Column{
				{Name: "event_id", Type: schema.Int},
				{Name: "ts", Type: schema.Int, Synonyms: []string{"time", "timestamp"}},
				{Name: "device_id", Type: schema.Int, Synonyms: []string{"device", "source"}},
				{Name: "service", Type: schema.Text, NameLike: true, Synonyms: []string{"component", "app"}},
				{Name: "level", Type: schema.Text, Synonyms: []string{"severity"}},
				{Name: "status", Type: schema.Int, Synonyms: []string{"code"}},
				{Name: "latency_ms", Type: schema.Float, Synonyms: []string{"latency", "duration"}},
			},
		},
	}, nil)
}

// eventLevels is weighted toward the quiet end, like real logs: the
// selective values ("error", "fatal") are rare, so predicates on them
// are selective probes.
var eventLevels = []string{
	"debug", "debug", "debug", "info", "info", "info", "info",
	"warn", "warn", "error",
}

// Events builds the telemetry log with n rows, fully deterministic in
// n. ts advances by one every ~8 rows (clustered and monotonic — the
// shape zone maps skip on), device_id spans [0, 4096) (FOR-packable),
// service cycles through 24 names and level through a weighted list
// (both dictionary-encodable), status is a small code set, and
// latency_ms is a computed float that is NULL on a rotating schedule
// (~3% of rows).
func Events(n int) *store.DB {
	db := store.NewDB(EventsSchema())
	r := rng(11)
	rows := make([]store.Row, 0, n)
	ts := int64(1_700_000_000)
	for i := 0; i < n; i++ {
		if i%8 == 7 {
			ts++
		}
		lvl := eventLevels[r.Intn(len(eventLevels))]
		status := int64(200)
		switch lvl {
		case "warn":
			status = 429
		case "error":
			if i%2 == 0 {
				status = 500
			} else {
				status = 503
			}
		}
		lat := store.Float(float64(1+r.Intn(250)) + float64(i%10)/10)
		if i%37 == 17 {
			lat = store.Null()
		}
		rows = append(rows, store.Row{
			store.Int(int64(i)),
			store.Int(ts),
			store.Int(int64(r.Intn(4096))),
			store.Text(fmt.Sprintf("svc-%02d", i%24)),
			store.Text(lvl),
			store.Int(status),
			lat,
		})
	}
	db.MustBulkInsert("events", rows)
	return db
}
