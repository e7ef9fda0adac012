package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// ColdScan is one probe of the larger-than-memory experiment (F12):
// the same query timed resident (before the DB spills: every segment
// payload in memory, no cache in the loop — the execution the cache
// must match row for row), then cold (every sealed payload evicted,
// reads fault through the segment cache from disk) and warm (payloads
// left resident by the previous run).
type ColdScan struct {
	Name     string
	Par      int
	Rows     int           // table rows the scan is over
	Cold     time.Duration // EvictAll before each rep; min over reps
	Warm     time.Duration // cache state carried between reps
	Resident time.Duration // same segments before EnableSpill
	ColdMiss int64         // segments faulted in per cold run
	ColdMB   float64       // bytes faulted from disk per cold run (MiB)
	WarmHit  float64       // warm-run hit ratio: hits / (hits + misses)
	Scanned  int64         // segments decoded by the scan (per run)
	Skipped  int64         // segments pruned by zone maps (per run)
	OutRows  int           // result cardinality

	table string
	stmt  *sql.SelectStmt
	res   *exec.Result // the resident rows MeasureCold must reproduce
}

// ColdPenalty is Cold/Resident (>1 means faulting from disk cost that
// much over fully resident execution).
func (q ColdScan) ColdPenalty() float64 {
	if q.Resident <= 0 {
		return 0
	}
	return float64(q.Cold) / float64(q.Resident)
}

// ColdRowsPerSec is table rows over cold-path time: the sustained
// throughput of scanning a dataset that does not fit in memory.
func (q ColdScan) ColdRowsPerSec() float64 {
	if q.Cold <= 0 {
		return 0
	}
	return float64(q.Rows) / q.Cold.Seconds()
}

// MeasureResident times one query on a DB that has not enabled spill
// yet — the baseline half of a ColdScan. Timing details mirror
// MeasureSegQuery: per-mode time is the minimum over reps.
func MeasureResident(db *store.DB, table, name, query string, par, reps int) (ColdScan, error) {
	if db.SegCache() != nil {
		return ColdScan{}, fmt.Errorf("bench: F12 %q: the resident baseline runs before EnableSpill", name)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return ColdScan{}, err
	}
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, par)
	if err != nil {
		return ColdScan{}, err
	}
	ctx := context.Background()
	res, err := exec.Run(ctx, sn, p, exec.RunOpts{}) // warm-up: builds the segment layout
	if err != nil {
		return ColdScan{}, err
	}
	resident, err := minOver(reps, func() (*exec.Result, error) { return exec.Run(ctx, sn, p, exec.RunOpts{}) })
	if err != nil {
		return ColdScan{}, err
	}
	return ColdScan{
		Name: name, Par: par,
		Rows:     sn.Table(table).Len(),
		Resident: resident,
		OutRows:  len(res.Rows),
		table:    table, stmt: stmt, res: res,
	}, nil
}

// MeasureCold times the probe cold and warm once db has spilled, and
// enforces the experiment's correctness bars in-run:
//
//   - the cold read-through result is row-for-row identical to the
//     resident execution MeasureResident saw — faulting segments back
//     from disk must never change an answer;
//   - at par 1 with every segment sealed, the number of disk faults in
//     a cold run equals the number of segments the scan decoded: a
//     zone-pruned segment is skipped on its resident zone maps alone
//     and never touches disk.
//
// Counters come from a dedicated counted run so the timed loops stay
// untouched.
func (q *ColdScan) MeasureCold(db *store.DB, reps int) error {
	cache := db.SegCache()
	if cache == nil {
		return fmt.Errorf("bench: F12 %q needs a spill-enabled DB (EnableSpill first)", q.Name)
	}
	sn := db.Snapshot()
	p, err := exec.Compile(sn, q.stmt, q.Par)
	if err != nil {
		return err
	}
	ctx := context.Background()
	run := func() (*exec.Result, error) { return exec.Run(ctx, sn, p, exec.RunOpts{}) }

	// Warm-up: funnels sealed segments into the cache (adoption spills
	// them to disk).
	if _, err := run(); err != nil {
		return err
	}
	allSealed := true
	for _, seg := range sn.Table(q.table).Segments().Segs {
		if !seg.Sealed {
			allSealed = false
		}
	}

	// Counted cold run: evict everything, then record which segments the
	// scan decoded vs zone-pruned and how many faulted in from disk.
	// This is the run the correctness bars read, and its result is the
	// one compared row-for-row against the resident baseline — a
	// genuinely cold read-through execution.
	cache.EvictAll()
	before := cache.Stats()
	var ctr store.SegCounters
	coldRes, err := exec.Run(ctx, sn, p, exec.RunOpts{SegC: &ctr})
	if err != nil {
		return err
	}
	after := cache.Stats()
	q.ColdMiss = after.Misses - before.Misses
	q.ColdMB = float64(after.FaultBytes-before.FaultBytes) / (1 << 20)
	q.Scanned, q.Skipped = ctr.Scanned.Load(), ctr.Skipped.Load()

	if err := sameRows("F12 "+q.Name, "cold read-through", coldRes, "resident execution", q.res); err != nil {
		return err
	}
	if q.Par == 1 && allSealed && q.ColdMiss != q.Scanned {
		return fmt.Errorf("bench: F12 %q: %d disk faults for %d decoded segments — zone-pruned segments must skip on resident zone maps without I/O",
			q.Name, q.ColdMiss, q.Scanned)
	}

	// Cold timing: evict before every rep so each one faults from disk.
	q.Cold = -1
	for i := 0; i < reps; i++ {
		cache.EvictAll()
		start := time.Now()
		if _, err := run(); err != nil {
			return err
		}
		if d := time.Since(start); q.Cold < 0 || d < q.Cold {
			q.Cold = d
		}
	}

	// Warm timing: cache state carries over from the last cold rep, so
	// whatever fits in budget is served from memory.
	w0 := cache.Stats()
	if q.Warm, err = minOver(reps, run); err != nil {
		return err
	}
	w1 := cache.Stats()
	if acc := (w1.Hits - w0.Hits) + (w1.Misses - w0.Misses); acc > 0 {
		q.WarmHit = float64(w1.Hits-w0.Hits) / float64(acc)
	}
	return nil
}
