package a

import "context"

type Engine struct{}

func (e *Engine) PublishContext(ctx context.Context, s string) error { return nil }

func (e *Engine) forEachCtx(ctx context.Context, n int) {}

// Publish is a ctx-less wrapper: single-statement delegation to the
// *Context variant still severs cancellation, so it is flagged.
func (e *Engine) Publish(s string) error {
	return e.PublishContext(context.Background(), s) // want `context.Background\(\) severs cancellation`
}

// ForEach delegates to a *Ctx-suffixed helper; flagged the same way.
func (e *Engine) ForEach(n int) {
	e.forEachCtx(context.Background(), n) // want `context.Background\(\) severs cancellation`
}

// Leak mints a root context mid-pipeline: flagged.
func (e *Engine) Leak(s string) error {
	ctx := context.Background() // want `context.Background\(\) severs cancellation`
	return e.PublishContext(ctx, s)
}

// TodoLeak uses TODO: flagged.
func (e *Engine) TodoLeak(s string) error {
	ctx := context.TODO() // want `context.TODO\(\) severs cancellation`
	return e.PublishContext(ctx, s)
}

// NotAWrapper has more than one statement and delegates to a *Context
// method: flagged.
func (e *Engine) NotAWrapper(s string) error {
	if s == "" {
		return nil
	}
	return e.PublishContext(context.Background(), s) // want `context.Background\(\) severs cancellation`
}

// Rooted is a documented root: the reasoned allow directive
// suppresses the diagnostic.
func (e *Engine) Rooted(s string) error {
	ctx := context.Background() //lint:allow ctxflow maintenance loop has no caller ctx
	return e.PublishContext(ctx, s)
}

// BareAllow carries a directive with no reason, which is inert: the
// diagnostic still fires.
func (e *Engine) BareAllow(s string) error {
	//lint:allow ctxflow
	ctx := context.Background() // want `context.Background\(\) severs cancellation`
	return e.PublishContext(ctx, s)
}
