package plan

import (
	"context"
	"errors"
)

// Sentinel errors, checkable with errors.Is.
var (
	// ErrDone is returned by Operator.Next once the stream is exhausted.
	// It is not a failure: every well-formed consumption loop ends by
	// observing it. Next keeps returning ErrDone on further calls.
	ErrDone = errors.New("plan: end of stream")

	// ErrCanceled tags any operator error caused by the query's context
	// being canceled or timing out. Errors carrying it also unwrap to the
	// underlying context error, so both
	//
	//	errors.Is(err, plan.ErrCanceled)
	//	errors.Is(err, context.Canceled) // or context.DeadlineExceeded
	//
	// hold. Use ErrCanceled to distinguish "the caller gave up" from a
	// genuine execution failure.
	ErrCanceled = errors.New("plan: query canceled")

	// ErrNotOpen reports Next or Stats-dependent use of an operator whose
	// Open was never called (or whose Open failed).
	ErrNotOpen = errors.New("plan: operator not open")
)

// canceledError tags a context-induced failure with ErrCanceled while
// keeping the original cause (which wraps context.Canceled or
// context.DeadlineExceeded) on the unwrap chain.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "plan: query canceled: " + e.cause.Error() }

//lint:allow unusedexport errors.Is calls it
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

//lint:allow unusedexport errors.Is and errors.Unwrap call it
func (e *canceledError) Unwrap() error { return e.cause }

// Canceled wraps cause (typically chaining to context.Canceled or
// context.DeadlineExceeded) so the result also matches ErrCanceled —
// for layers outside this package, like the network query service's
// client, that surface cancellation through the same sentinel.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &canceledError{cause: cause}
}

// ctxWrap classifies err: failures for which the operator's context is
// responsible come back tagged with ErrCanceled, everything else passes
// through unchanged. Operators route every error they surface through it.
func ctxWrap(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctx != nil && ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &canceledError{cause: err}
	}
	return err
}
