package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// VecSpeedup is one vectorized-versus-row-at-a-time timing comparison
// for a query (experiment F7), with the seed-style materializing
// reference path as the outer baseline.
type VecSpeedup struct {
	Name      string
	Par       int           // 1 = serial pipelines
	Vec       time.Duration // batch-at-a-time over column vectors
	Row       time.Duration // row-at-a-time Volcano iterators
	Reference time.Duration // materializing reference executor
}

// Factor is Row/Vec (>1 means vectorization won).
func (s VecSpeedup) Factor() float64 {
	if s.Vec <= 0 {
		return 0
	}
	return float64(s.Row) / float64(s.Vec)
}

// MeasureVecSpeedup times one query through the vectorized pipeline
// and the row-at-a-time pipeline at worker degree par (1 = serial),
// plus the reference executor, averaging over reps. Both planned sides
// run prebuilt plans so the factor isolates execution. The vectorized
// rows are checked row-for-row against the row-at-a-time baseline —
// order included — and by bag against the reference path.
func MeasureVecSpeedup(db *store.DB, name, query string, par, reps int) (VecSpeedup, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return VecSpeedup{}, err
	}
	ctx, sn := context.Background(), db.Snapshot()
	p, err := exec.Compile(sn, stmt, par)
	if err != nil {
		return VecSpeedup{}, err
	}

	vecRes, err := exec.Run(ctx, sn, p, exec.RunOpts{}) // warm-up and baseline rows
	if err != nil {
		return VecSpeedup{}, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := exec.Run(ctx, sn, p, exec.RunOpts{}); err != nil {
			return VecSpeedup{}, err
		}
	}
	vec := time.Since(start) / time.Duration(reps)

	rowRes, err := exec.Run(ctx, sn, p, exec.RunOpts{NoVec: true}) // warm-up
	if err != nil {
		return VecSpeedup{}, err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := exec.Run(ctx, sn, p, exec.RunOpts{NoVec: true}); err != nil {
			return VecSpeedup{}, err
		}
	}
	row := time.Since(start) / time.Duration(reps)

	refRes, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		return VecSpeedup{}, err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := exec.ReferenceQueryAt(sn, stmt); err != nil {
			return VecSpeedup{}, err
		}
	}
	ref := time.Since(start) / time.Duration(reps)

	if err := sameRows(name, "vectorized path", vecRes, "row path", rowRes); err != nil {
		return VecSpeedup{}, err
	}
	if !SameResult(vecRes, refRes) {
		return VecSpeedup{}, fmt.Errorf("bench: vectorized result diverges from reference for %q", name)
	}
	return VecSpeedup{Name: name, Par: par, Vec: vec, Row: row, Reference: ref}, nil
}
