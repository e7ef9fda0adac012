package plan

import "context"

// Request cancellation. A served query carries the request's
// cancellation signal into the executing plan as a done channel plus a
// cause callback — never as a context.Context stored in a struct (the
// ctxfirst analyzer enforces that rule; database/sql's driver layer
// uses the same split). Checkpoints sit at batch granularity: every
// leaf scan checks once per emitted batch, every Exchange worker checks
// before each morsel it claims for its one open pipeline, and Run
// re-checks as it materializes each batch. A canceled request
// therefore stops burning CPU within one batch of work per worker
// instead of finishing a multi-second scan nobody is waiting for.

// canceled reports the run's cancellation error once Done is closed,
// nil before then (and always nil for runs without a signal).
func (c *Ctx) canceled() error {
	if c.Done == nil {
		return nil
	}
	if c.tick != nil {
		c.tick()
	}
	select {
	case <-c.Done:
		if c.Cause != nil {
			if err := c.Cause(); err != nil {
				return err
			}
		}
		return context.Canceled
	default:
		return nil
	}
}

// checkpoint wraps a batch iterator (or passes on its open's error)
// with a per-batch cancellation check; runs without a signal get the
// iterator back unchanged.
func (c *Ctx) checkpoint(it viter, err error) (viter, error) {
	if err != nil || c.Done == nil {
		return it, err
	}
	return func() (*vbatch, error) {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		return it()
	}, nil
}
