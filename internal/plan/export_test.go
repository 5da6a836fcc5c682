package plan

import (
	"context"
	"errors"

	"piersearch/internal/pier"
)

// Only this package's tests use what follows.

// Run executes the plan to completion under ctx: Open, drain, Close. It
// returns the emitted tuples and the first error (the Close error is
// reported only when the drain succeeded).
func (p *CompiledPlan) Run(ctx context.Context) ([]pier.Tuple, error) {
	if err := p.Root.Open(ctx); err != nil {
		p.Root.Close() //nolint:errcheck // open failed; best-effort release
		return nil, err
	}
	var out []pier.Tuple
	drainErr := Drain(p.Root, func(t pier.Tuple) { out = append(out, t) })
	closeErr := p.Root.Close()
	if drainErr != nil {
		return out, drainErr
	}
	return out, closeErr
}

// Drain pulls op until ErrDone, passing each tuple to fn, and returns the
// first execution error.
func Drain(op Operator, fn func(pier.Tuple)) error {
	for {
		t, err := op.Next()
		if errors.Is(err, ErrDone) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(t)
	}
}
