// Package ctxflow checks the cancellation-threading invariant.
//
// # Invariant
//
// Every operation under internal/ runs beneath the context its caller
// handed it. PR 3 threaded context.Context end to end so that a
// canceled query aborts in-flight dials, RPCs, and chain waits; a
// stray context.Background() or context.TODO() quietly detaches its
// subtree from that graph, and the leak only shows up as goroutines
// and RPCs that outlive their query under churn.
//
// # What it reports
//
// Any call to context.Background or context.TODO in a package whose
// import path contains an "internal" element, except in test-harness
// packages whose package name ends in "test" (dhttest, linttest): they
// drive APIs from scratch and mint root contexts by design. A ctx-less
// wrapper that delegates to its *Context twin is reported like any
// other call: the API has one generation, and every network operation
// takes its caller's ctx.
//
// # Suppressing
//
// A genuine root — a place where no caller context can exist, such as
// a connection-lifetime context in the daemon's accept path or a DHT
// node's lifetime context, which its maintenance work runs under — is
// annotated in place:
//
//	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow stream outlives the accept ctx; watcher cancels on conn death
//
// The reason is mandatory and should say why no caller ctx applies.
package ctxflow
