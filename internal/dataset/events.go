package dataset

import (
	"repro/internal/schema"
	"repro/internal/store"
)

// EventsSchema returns the single-table telemetry schema the segment
// tests and benchmarks read (TestClusteredScanSpeedup among them):
// TelemetrySchema's events table alone.
func EventsSchema() *schema.Schema {
	return schema.MustNew("events", []*schema.Table{eventsTable()}, nil)
}

// Events builds the telemetry log alone with n rows
// (TelemetryEventRows).
func Events(n int) *store.DB {
	db := store.NewDB(EventsSchema())
	db.MustBulkInsert("events", TelemetryEventRows(n))
	return db
}
