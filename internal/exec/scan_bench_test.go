package exec_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// scanTemplateRows is the event-log size BenchmarkScanTemplates runs
// over: two sealed 64K-row segments, a quarter of the question
// benchmark's ask_scan table.
const scanTemplateRows = 1 << 17

// scanTemplates are the six question shapes of the question
// benchmark's ask_scan workload, as the SQL the engine generates for
// them: float constants against INT and FLOAT columns, ts windows a
// quarter, an eighth and a sixteenth of the log wide.
func scanTemplates() []struct{ name, sql string } { return scanTemplatesAt(scanTemplateRows) }

// scanTemplatesAt sizes the ts windows for a log of the given length.
func scanTemplatesAt(rows int) []struct{ name, sql string } {
	const ts0 = 1_700_000_000
	span := rows / 8
	win := func(width int) string {
		lo := ts0 + span/3
		return fmt.Sprintf("%d.0 AND %d.0", lo, lo+width)
	}
	return []struct{ name, sql string }{
		{"count_latency",
			"SELECT COUNT(*) FROM events WHERE (events.latency_ms > 120.5)"},
		{"level_window",
			"SELECT events.level, COUNT(*) FROM events WHERE events.ts BETWEEN " + win(span/4) + " GROUP BY events.level"},
		{"region_join",
			"SELECT devices.region, AVG(events.latency_ms) FROM events, devices WHERE ((events.device_id = devices.device_id) AND events.ts BETWEEN " + win(span/8) + ") GROUP BY devices.region"},
		{"service_latency",
			"SELECT events.service, COUNT(*) FROM events WHERE (events.latency_ms > 120.5) GROUP BY events.service"},
		{"avg_window",
			"SELECT AVG(events.latency_ms) FROM events WHERE events.ts BETWEEN " + win(span/16)},
		{"two_pred",
			"SELECT COUNT(*) FROM events WHERE ((events.latency_ms > 120.5) AND (events.status > 250.0))"},
	}
}

// bindScanTemplate prepares q the way the engine's ask path does:
// parameterized, compiled as a template and bound, at two workers.
func bindScanTemplate(tb testing.TB, sn *store.Snapshot, q string) (*plan.Plan, []store.Value) {
	tb.Helper()
	tmpl, params := sql.Parameterize(sql.MustParse(q))
	pq, err := exec.PrepareTemplateAt(sn, tmpl, params, 2)
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := pq.BindPinned(sn, params, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return p, params
}

// BenchmarkScanTemplates runs each ask_scan question shape the way the
// engine's ask path does — template compiled once, plan bound, then
// Run with parameters and counters at two workers — with everything
// but the run outside the timed region. B/op is what one question
// allocates inside the executor: it must follow the rows a question
// keeps, not the rows it scans, which allocs/op cannot see (an 8 KiB
// slice per batch is one allocation), so cmd/allocguard bounds both
// columns. It is also the
// profiling hook for the scan path:
//
//	go test -run none -bench ScanTemplates/region_join -memprofile mem.out ./internal/exec
func BenchmarkScanTemplates(b *testing.B) {
	sn := dataset.Telemetry(scanTemplateRows).Snapshot()
	for _, tc := range scanTemplates() {
		b.Run(tc.name, func(b *testing.B) {
			p, params := bindScanTemplate(b, sn, tc.sql)
			var segc store.SegCounters
			run := func() {
				if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Params: params, SegC: &segc}); err != nil {
					b.Fatal(err)
				}
			}
			run() // builds the segment layout
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
