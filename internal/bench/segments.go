package bench

import (
	"context"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// SegQuery is one probe of the compressed-segment experiment (F11): a
// query over the telemetry log timed on the sealed segment layout
// (zone-map skipping live) and on the same rows resealed as one plain
// unsealed segment — the uncompressed layout — at one worker degree.
// Rows/s figures use the table's row count — the work a full scan
// would touch — so skipping shows up as throughput, not as a smaller
// denominator.
type SegQuery struct {
	Name      string
	Par       int
	Rows      int           // table rows the scan is over
	Seg       time.Duration // sealed segments, zone maps live
	Plain     time.Duration // one plain segment (set by MeasurePlain)
	RowMode   time.Duration // row-at-a-time ablation
	SegN      int64         // segments decoded (per run)
	SegSkip   int64         // segments skipped by zone maps (per run)
	OutRows   int           // result cardinality
	SkipRatio float64       // SegSkip / (SegN + SegSkip)

	stmt *sql.SelectStmt
	res  *exec.Result // the segment-path rows MeasurePlain must reproduce
}

// Factor is Plain/Seg (>1 means the compressed layout won).
func (q SegQuery) Factor() float64 {
	if q.Seg <= 0 {
		return 0
	}
	return float64(q.Plain) / float64(q.Seg)
}

// RowsPerSec is table rows over segment-path time.
func (q SegQuery) RowsPerSec() float64 {
	if q.Seg <= 0 {
		return 0
	}
	return float64(q.Rows) / q.Seg.Seconds()
}

// SegFootprint is the storage footprint of one table's segment layout
// under its current seal boundary.
type SegFootprint struct {
	Rows          int
	SegBytes      int
	SegPerRow     float64
	Segments      int
	SealedRatio   float64 // sealed segments / total
	EncodingCount map[string]int
}

// MeasureSegFootprint builds the named table's segment layout and
// reports its footprint. The table is pinned to one snapshot so row
// count and segment bytes describe the same version even while writers
// publish (snappin: the unpinned Table accessors would pin a fresh
// version per call).
func MeasureSegFootprint(db *store.DB, table string) SegFootprint {
	t := db.Table(table).Snap()
	ss := t.Segments()
	f := SegFootprint{
		Rows:          t.Len(),
		SegBytes:      ss.Bytes(),
		Segments:      len(ss.Segs),
		EncodingCount: map[string]int{},
	}
	if f.Rows > 0 {
		f.SegPerRow = float64(f.SegBytes) / float64(f.Rows)
	}
	sealed := 0
	for _, seg := range ss.Segs {
		if seg.Sealed {
			sealed++
		}
		for _, c := range seg.MustCols() {
			f.EncodingCount[c.Enc.String()]++
		}
	}
	if len(ss.Segs) > 0 {
		f.SealedRatio = float64(sealed) / float64(len(ss.Segs))
	}
	return f
}

// minOver is the per-mode timing both F11 and F12 use: the minimum
// over reps, not the mean — the first query after a dataset build
// otherwise absorbs a GC cycle over the fresh heap and reads 5-10x
// slower than steady state.
func minOver(reps int, run func() (*exec.Result, error)) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := run(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// MeasureSegQuery times one query over the table's segment layout at
// worker degree par, vectorized and row-at-a-time, and requires the
// two to agree row for row — the skip logic must never change results.
// Counters come from a dedicated counted run so the timed loops stay
// untouched. MeasurePlain adds the uncompressed column once the caller
// has resealed the table.
func MeasureSegQuery(db *store.DB, table, name, query string, par, reps int) (SegQuery, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return SegQuery{}, err
	}
	sn := db.Snapshot()
	p, err := exec.Compile(sn, stmt, par)
	if err != nil {
		return SegQuery{}, err
	}
	ctx := context.Background()

	segRes, err := exec.Run(ctx, sn, p, exec.RunOpts{}) // warm-up: forces segment build
	if err != nil {
		return SegQuery{}, err
	}
	var c store.SegCounters
	if _, err := exec.Run(ctx, sn, p, exec.RunOpts{SegC: &c}); err != nil {
		return SegQuery{}, err
	}
	seg, err := minOver(reps, func() (*exec.Result, error) { return exec.Run(ctx, sn, p, exec.RunOpts{}) })
	if err != nil {
		return SegQuery{}, err
	}

	rowRes, err := exec.Run(ctx, sn, p, exec.RunOpts{NoVec: true})
	if err != nil {
		return SegQuery{}, err
	}
	rowMode, err := minOver(reps, func() (*exec.Result, error) { return exec.Run(ctx, sn, p, exec.RunOpts{NoVec: true}) })
	if err != nil {
		return SegQuery{}, err
	}
	if err := sameRows(name, "segment path", segRes, "row-mode path", rowRes); err != nil {
		return SegQuery{}, err
	}

	out := SegQuery{
		Name: name, Par: par,
		Rows: sn.Table(table).Len(),
		Seg:  seg, RowMode: rowMode,
		SegN:    c.Scanned.Load(),
		SegSkip: c.Skipped.Load(),
		OutRows: len(segRes.Rows),
		stmt:    stmt, res: segRes,
	}
	if total := out.SegN + out.SegSkip; total > 0 {
		out.SkipRatio = float64(out.SegSkip) / float64(total)
	}
	return out, nil
}

// MeasurePlain times the probe again on db's current layout and fills
// q.Plain, requiring the rows MeasureSegQuery saw. F11 calls it after
// resealing the table as one plain unsealed segment
// (SetSegmentRows(rows+1)): the same typed slices uncompressed, no
// zone map worth consulting — what compression and skipping are
// measured against.
func (q *SegQuery) MeasurePlain(db *store.DB, reps int) error {
	sn := db.Snapshot()
	p, err := exec.Compile(sn, q.stmt, q.Par)
	if err != nil {
		return err
	}
	ctx := context.Background()
	res, err := exec.Run(ctx, sn, p, exec.RunOpts{}) // warm-up: forces the reseal
	if err != nil {
		return err
	}
	if err := sameRows(q.Name, "plain-segment path", res, "sealed-segment path", q.res); err != nil {
		return err
	}
	q.Plain, err = minOver(reps, func() (*exec.Result, error) { return exec.Run(ctx, sn, p, exec.RunOpts{}) })
	return err
}
