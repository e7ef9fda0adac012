package exec

// Internal regression tests for arm — the contract that Background/TODO
// contexts keep the zero-overhead nil signal while any context carrying
// a Done channel always arms the run. The
// external half (observable cancellation through Run, literal and
// prepared) lives in ctx_test.go; these pin the signal wiring itself
// so a refactor cannot silently disconnect it.

import (
	"context"
	"testing"
	"time"

	"repro/internal/plan"
)

func TestArmSignal(t *testing.T) {
	// Background and TODO: Done() is nil, the signal must stay nil so
	// unserved runs take the checkpoint-free iterator paths.
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"nil", nil},
		{"background", context.Background()},
		{"todo", context.TODO()},
	} {
		var pc plan.Ctx
		arm(tc.ctx, &pc)
		if pc.Done != nil || pc.Cause != nil {
			t.Errorf("%s context armed the run; want nil signal", tc.name)
		}
	}

	// Any Done-bearing context arms: cancelable, deadline-bearing, and
	// values derived from them.
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadlined, dcancel := context.WithTimeout(context.Background(), time.Hour)
	defer dcancel()
	derived := context.WithValue(cancelable, struct{}{}, "v")
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"cancelable", cancelable},
		{"deadline", deadlined},
		{"derived", derived},
	} {
		var pc plan.Ctx
		arm(tc.ctx, &pc)
		if pc.Done == nil {
			t.Errorf("%s context did not arm the run", tc.name)
			continue
		}
		if pc.Cause == nil {
			t.Errorf("%s context armed without a cause callback", tc.name)
		}
	}

	// The armed cause callback reports the context's actual cause.
	cctx, ccancel := context.WithCancelCause(context.Background())
	var pc plan.Ctx
	arm(cctx, &pc)
	wantErr := context.Canceled
	ccancel(nil)
	if pc.Cause == nil {
		t.Fatal("cause callback missing")
	}
	if got := pc.Cause(); got != wantErr {
		t.Errorf("cause() = %v, want %v", got, wantErr)
	}
}
