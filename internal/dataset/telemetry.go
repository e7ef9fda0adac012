package dataset

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/store"
)

// TelemetryDevices is the size of the telemetry device dimension; the
// events fact table's device_id spans exactly this range, so the FK
// join is total.
const TelemetryDevices = 4096

// TelemetrySchema is the two-table telemetry schema the ask_scan
// workload and the parallel join tests read: the Events log joined to
// a device dimension through a foreign key on device_id.
func TelemetrySchema() *schema.Schema {
	return schema.MustNew("telemetry", []*schema.Table{
		{
			Name:       "devices",
			PrimaryKey: "device_id",
			Synonyms:   []string{"device", "sensor", "machine"},
			Columns: []schema.Column{
				{Name: "device_id", Type: schema.Int},
				{Name: "region", Type: schema.Text, Synonyms: []string{"zone", "area"}},
				{Name: "model", Type: schema.Text, NameLike: true, Synonyms: []string{"type", "kind"}},
				{Name: "priority", Type: schema.Int, Synonyms: []string{"tier"}},
			},
		},
		eventsTable(),
	}, []schema.ForeignKey{
		{Table: "events", Column: "device_id", RefTable: "devices", RefColumn: "device_id"},
	})
}

// eventsTable is the wide append-only event log, in both schemas. Its
// columns exhibit the distributions segment encodings target: a
// clustered monotonic timestamp (zone maps + FOR), low-cardinality
// strings (dictionary), narrow ints (FOR) and a float measure.
func eventsTable() *schema.Table {
	return &schema.Table{
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
	}
}

// eventLevels is weighted toward the quiet end, like real logs: the
// selective values ("error", "fatal") are rare, so predicates on them
// are selective probes.
var eventLevels = []string{
	"debug", "debug", "debug", "info", "info", "info", "info",
	"warn", "warn", "error",
}

var deviceRegions = []string{"us-east", "us-west", "eu-central", "ap-south", "sa-east", "af-north"}

// DeviceRows generates the device dimension, deterministic in nothing
// but TelemetryDevices.
func DeviceRows() []store.Row {
	r := rng(13)
	rows := make([]store.Row, 0, TelemetryDevices)
	for i := 0; i < TelemetryDevices; i++ {
		rows = append(rows, store.Row{
			store.Int(int64(i)),
			store.Text(deviceRegions[r.Intn(len(deviceRegions))]),
			store.Text(fmt.Sprintf("model-%02d", i%16)),
			store.Int(int64(1 + r.Intn(3))),
		})
	}
	return rows
}

// TelemetryEventRows generates n event rows, fully deterministic in
// n, as bare rows so a loader can time or split the load itself. ts
// advances by one every ~8 rows (clustered and monotonic — the shape
// zone maps skip on), device_id spans [0, TelemetryDevices)
// (FOR-packable), service cycles through 24 names and level through a
// weighted list (both dictionary-encodable), status is a small code
// set, and latency_ms is a computed float that is NULL on a rotating
// schedule (~3% of rows).
func TelemetryEventRows(n int) []store.Row {
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
			store.Int(int64(r.Intn(TelemetryDevices))),
			store.Text(fmt.Sprintf("svc-%02d", i%24)),
			store.Text(lvl),
			store.Int(status),
			lat,
		})
	}
	return rows
}

// Telemetry builds the two-table telemetry database with n event rows.
func Telemetry(n int) *store.DB {
	db := store.NewDB(TelemetrySchema())
	db.MustBulkInsert("devices", DeviceRows())
	db.MustBulkInsert("events", TelemetryEventRows(n))
	return db
}
