// Package plan is PIER's composable query-plan layer: pull-based dataflow
// operators over the DHT engine, and a planner that compiles conjunctive
// keyword queries into operator trees. It replaces the monolithic
// ChainJoin/CacheSelect entrypoints as the way queries are assembled —
// those engine methods remain as the distributed primitives the operators
// wrap.
//
// # The Operator contract
//
// An Operator is a Volcano-style iterator with a context:
//
//	Open(ctx) error     — acquire resources, run per-plan setup
//	Next() (Tuple, error) — produce the next tuple
//	Close() error       — release resources
//	Stats() OpStats     — cost accrued so far, this operator only
//
// Ordering. Callers must call Open exactly once before the first Next,
// and Close exactly once when done (including after errors and early
// termination). Operators with inputs open, advance and close their
// inputs themselves: driving the root drives the tree. Next before a
// successful Open returns ErrNotOpen. Close is idempotent and legal in
// any state; after Close, Next returns ErrNotOpen.
//
// Errors. Next returns ErrDone when the stream is exhausted, and keeps
// returning it. Any other error is an execution failure; the stream is
// then dead, and the only legal next call is Close. Failures caused by
// the context — cancellation or deadline — are tagged so that both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) (or
// DeadlineExceeded) hold. Errors never carry partial tuples: a Next that
// errors returns a nil tuple.
//
// Context. The ctx given to Open governs the whole iteration: every DHT
// operation an operator issues, at Open time (ChainJoin dispatches the
// whole distributed join during Open) or during Next (DHTFetch resolves
// items in batches as the consumer pulls), is issued under that ctx.
// Canceling it makes in-flight RPCs abort and subsequent Next calls fail
// with an ErrCanceled-tagged error. Work already forwarded to remote
// nodes is not chased down; its eventual results are dropped at the
// origin.
//
// Early termination is the pull contract's reward: a consumer that stops
// calling Next (a Limit above, a streaming caller that has enough
// results) stops all upstream work. DHTFetch in particular fetches in
// batches of its worker bound, so abandoning a stream wastes at most one
// batch of item lookups.
//
// Stats are per-operator; TotalStats(root) walks the tree (via Inputs)
// and sums the origin-observed network cost of the whole plan.
//
// # Composing plans
//
// Planner.Plan compiles a Query against a Catalog (which relations hold
// postings, cached fulltext, and items) into the paper's two plan shapes;
// see Plan's doc comment for the trees. The package holds only the
// operators the planner compiles: ChainJoin, CacheSelect, DHTFetch,
// Limit, Project and Distinct.
package plan
