// Partitioned-table measurements (experiment F13): parallel bulk-load
// throughput across independent partition writer locks, partition-wise
// join execution against the shared-build exchange baseline, and
// partition pruning's segment-I/O profile.

package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// loadBatch is the per-BulkInsert chunk size of the parallel-load
// measurement: large enough that per-publish fixed costs amortize,
// small enough that a load produces many publishes and the writer
// locks are actually exercised.
const loadBatch = 4096

// ParallelLoad is one concurrent bulk-load comparison: the same row
// set loaded by Loaders concurrent goroutines into a single-stream
// table (every publish serializes on one writer lock) and into the
// same table hash-partitioned Parts ways (publishes to disjoint
// partitions overlap).
type ParallelLoad struct {
	Name    string
	Parts   int
	Loaders int
	Rows    int
	Single  time.Duration // 1 partition: one writer lock
	Parted  time.Duration // Parts partitions: independent writer locks
}

// Factor is Single/Parted (>1 means partitioned loading won).
func (l ParallelLoad) Factor() float64 {
	if l.Parted <= 0 {
		return 0
	}
	return float64(l.Single) / float64(l.Parted)
}

// RowsPerSec is rows loaded over partitioned-path time.
func (l ParallelLoad) RowsPerSec() float64 {
	if l.Parted <= 0 {
		return 0
	}
	return float64(l.Rows) / l.Parted.Seconds()
}

// MeasureParallelLoad times loading rows into table with loaders
// concurrent goroutines, once into a fresh single-stream table and
// once into the table hash-partitioned parts ways on col, best of
// reps. newDB must return a fresh database each call (a load mutates
// its target, so timed runs cannot share one). An index on col is
// built first on both sides so each publish carries the real
// incremental-maintenance work a loaded table pays, not just a row
// append. Row counts are verified after every load — a fast load that
// lost rows is no load.
func MeasureParallelLoad(newDB func() *store.DB, table, col string,
	rows []store.Row, parts, loaders, reps int) (ParallelLoad, error) {
	if loaders < 1 {
		loaders = 1
	}
	out := ParallelLoad{Name: table, Parts: parts, Loaders: loaders, Rows: len(rows)}

	// Chunks are carved once and handed out round-robin, so both sides
	// load the identical batch sequence per goroutine.
	var chunks [][]store.Row
	for lo := 0; lo < len(rows); lo += loadBatch {
		hi := min(lo+loadBatch, len(rows))
		chunks = append(chunks, rows[lo:hi])
	}

	loadOnce := func(partitioned bool) (time.Duration, error) {
		db := newDB()
		if partitioned {
			if err := db.PartitionTable(table, store.HashPartition(col, parts)); err != nil {
				return 0, err
			}
		}
		t := db.Table(table)
		if t == nil {
			return 0, fmt.Errorf("bench: unknown table %s", table)
		}
		if err := t.BuildIndex(col); err != nil {
			return 0, err
		}
		base := t.Snap().Len()

		errs := make([]error, loaders)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < loaders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(chunks); i += loaders {
					if err := t.BulkInsert(chunks[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		d := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		if got := t.Snap().Len() - base; got != len(rows) {
			return 0, fmt.Errorf("bench: load published %d of %d rows", got, len(rows))
		}
		return d, nil
	}

	minLoad := func(partitioned bool) (time.Duration, error) {
		best := time.Duration(-1)
		for i := 0; i < reps; i++ {
			d, err := loadOnce(partitioned)
			if err != nil {
				return 0, err
			}
			if best < 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	var err error
	if out.Single, err = minLoad(false); err != nil {
		return ParallelLoad{}, err
	}
	if out.Parted, err = minLoad(true); err != nil {
		return ParallelLoad{}, err
	}
	return out, nil
}

// PartJoin is one partition-wise join comparison: the same query at
// the same worker degree over co-partitioned tables (per-partition
// build+probe, no shared build side) and over the unpartitioned layout
// (shared-build exchange).
type PartJoin struct {
	Name    string
	Par     int
	Parts   int
	Rows    int           // probe-side table rows
	Wise    time.Duration // partition-wise plan on the partitioned layout
	Shared  time.Duration // shared-build exchange on the flat layout
	OutRows int
	Scanned int64 // partitions read by the counted partition-wise run
	Pruned  int64 // partitions pruned by it
}

// Factor is Shared/Wise (>1 means the partition-wise join won).
func (j PartJoin) Factor() float64 {
	if j.Wise <= 0 {
		return 0
	}
	return float64(j.Shared) / float64(j.Wise)
}

// MeasurePartitionJoin times query at degree par over dbPart (tables
// co-partitioned on the join key) and dbFlat (same data,
// unpartitioned), best of reps. It fails if the partitioned plan did
// not actually engage the partition-wise operator — a baseline racing
// a baseline proves nothing — and requires the two layouts to agree
// row for row, so the query should carry an ORDER BY (hash routing
// reorders base tables, and an unordered comparison would have to
// forgive reorderings the operator must not introduce elsewhere).
func MeasurePartitionJoin(dbPart, dbFlat *store.DB, table, name, query string,
	par, reps int) (PartJoin, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return PartJoin{}, err
	}
	snP := dbPart.Snapshot()
	snF := dbFlat.Snapshot()
	pp, err := exec.Compile(snP, stmt, par)
	if err != nil {
		return PartJoin{}, err
	}
	if n := pp.OperatorCounts()["partition-wise"]; n == 0 {
		return PartJoin{}, fmt.Errorf("bench: plan for %q has no partition-wise operator", name)
	}
	pf, err := exec.Compile(snF, stmt, par)
	if err != nil {
		return PartJoin{}, err
	}

	timed := func(sn *store.Snapshot, p *plan.Plan) (time.Duration, error) {
		return minOver(reps, func() (*exec.Result, error) { return exec.Run(context.Background(), sn, p, exec.RunOpts{}) })
	}

	wiseRes, err := exec.Run(context.Background(), snP, pp, exec.RunOpts{}) // warm-up and baseline rows
	if err != nil {
		return PartJoin{}, err
	}
	var c store.PartCounters
	if _, err := exec.Run(context.Background(), snP, pp, exec.RunOpts{PartC: &c}); err != nil {
		return PartJoin{}, err
	}
	wise, err := timed(snP, pp)
	if err != nil {
		return PartJoin{}, err
	}
	sharedRes, err := exec.Run(context.Background(), snF, pf, exec.RunOpts{}) // warm-up
	if err != nil {
		return PartJoin{}, err
	}
	shared, err := timed(snF, pf)
	if err != nil {
		return PartJoin{}, err
	}

	if !SameResult(wiseRes, sharedRes) {
		return PartJoin{}, fmt.Errorf("bench: partition-wise result diverges from flat layout for %q", name)
	}
	tab := snP.Table(table)
	return PartJoin{
		Name: name, Par: par,
		Parts: tab.NumParts(),
		Rows:  tab.Len(),
		Wise:  wise, Shared: shared,
		OutRows: len(wiseRes.Rows),
		Scanned: c.Scanned.Load(),
		Pruned:  c.Pruned.Load(),
	}, nil
}

// PartPrune is one partition-pruning probe over a spill-enabled
// database: partitions pruned by resident statistics alone, and the
// segment bytes the run actually faulted back from disk versus the
// most it could have touched had pruning done its job.
type PartPrune struct {
	Name      string
	Parts     int
	Scanned   int64 // partitions read
	Pruned    int64 // partitions eliminated before any segment I/O
	FaultIn   int64 // decoded bytes faulted from the spill directory
	KeptBytes int64 // total segment bytes of the partitions kept
	OutRows   int
}

// MeasurePartitionPrune runs query serially over db — partitioned,
// spill-enabled — with every segment evicted to disk first, and
// verifies the zero-I/O contract: pruning must fire (kept lists which
// partition indexes the predicate admits; everything else must be
// pruned), and the bytes faulted back in must not exceed the kept
// partitions' total segment footprint. Pruning decisions read resident
// per-partition statistics only, so a pruned partition's segments
// never leave the spill directory.
func MeasurePartitionPrune(db *store.DB, table, name, query string, kept []int) (PartPrune, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return PartPrune{}, err
	}
	sc := db.SegCache()
	if sc == nil {
		return PartPrune{}, fmt.Errorf("bench: %q needs a spill-enabled database", name)
	}
	sn := db.Snapshot()
	tab := sn.Table(table)
	if tab == nil {
		return PartPrune{}, fmt.Errorf("bench: unknown table %s", table)
	}
	p, err := exec.Compile(sn, stmt, 1)
	if err != nil {
		return PartPrune{}, err
	}

	if _, err := exec.Run(context.Background(), sn, p, exec.RunOpts{}); err != nil { // warm-up: builds + spills segments
		return PartPrune{}, err
	}
	keptBytes := int64(0)
	for _, pi := range kept {
		keptBytes += int64(tab.Part(pi).Segments().Bytes())
	}
	sc.EvictAll()
	before := sc.Stats()

	var partc store.PartCounters
	var segc store.SegCounters
	res, err := exec.Run(context.Background(), sn, p, exec.RunOpts{Par: 1, SegC: &segc, PartC: &partc})
	if err != nil {
		return PartPrune{}, err
	}
	after := sc.Stats()

	out := PartPrune{
		Name:      name,
		Parts:     tab.NumParts(),
		Scanned:   partc.Scanned.Load(),
		Pruned:    partc.Pruned.Load(),
		FaultIn:   after.FaultBytes - before.FaultBytes,
		KeptBytes: keptBytes,
		OutRows:   len(res.Rows),
	}
	if want := int64(tab.NumParts() - len(kept)); out.Pruned != want {
		return PartPrune{}, fmt.Errorf("bench: %q pruned %d partitions, want %d of %d",
			name, out.Pruned, want, tab.NumParts())
	}
	if out.FaultIn > out.KeptBytes {
		return PartPrune{}, fmt.Errorf("bench: %q faulted %d bytes but kept partitions hold only %d — pruned partitions did segment I/O",
			name, out.FaultIn, out.KeptBytes)
	}
	return out, nil
}
