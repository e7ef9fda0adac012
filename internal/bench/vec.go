package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// VecSpeedup is one vectorized-engine timing for a query (experiment
// F7) against the seed-style materializing reference executor.
type VecSpeedup struct {
	Name      string
	Par       int           // 1 = serial pipelines
	Vec       time.Duration // batch-at-a-time over column vectors
	Reference time.Duration // materializing reference executor
}

// Factor is Reference/Vec (>1 means the engine won).
func (s VecSpeedup) Factor() float64 {
	if s.Vec <= 0 {
		return 0
	}
	return float64(s.Reference) / float64(s.Vec)
}

// MeasureVecSpeedup times one query through the engine at worker
// degree par (1 = serial) on a prebuilt plan, so the time isolates
// execution, and through the reference executor, averaging over reps.
// The engine's rows are checked by bag against the reference and, at
// par > 1, row for row — order included — against the serial run.
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

	if err := sameAsSerial(ctx, sn, p, name, vecRes); err != nil {
		return VecSpeedup{}, err
	}
	if !SameResult(vecRes, refRes) {
		return VecSpeedup{}, fmt.Errorf("bench: vectorized result diverges from reference for %q", name)
	}
	return VecSpeedup{Name: name, Par: par, Vec: vec, Reference: ref}, nil
}

// sameAsSerial requires res, from a run of p at its compiled degree,
// to equal p run serially row for row; a serial plan passes as is.
func sameAsSerial(ctx context.Context, sn *store.Snapshot, p *plan.Plan, name string, res *exec.Result) error {
	if p.Par <= 1 {
		return nil
	}
	serial, err := exec.Run(ctx, sn, p, exec.RunOpts{Par: 1})
	if err != nil {
		return err
	}
	return sameRows(name, "parallel run", res, "serial run", serial)
}
