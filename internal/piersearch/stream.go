package piersearch

import (
	"context"
	"errors"
	"fmt"
	"time"

	"piersearch/internal/plan"
	"piersearch/internal/telemetry"
)

// ErrDone is returned by ResultStream.Next once the stream is exhausted.
// It aliases plan.ErrDone, so either sentinel matches with errors.Is.
var ErrDone = plan.ErrDone

// ErrInvalidQuery tags compile-time query failures — no indexable
// keywords, an unknown strategy, a query the planner cannot shape. It
// distinguishes "the request is unanswerable" from execution failures,
// which the network query service maps to different error codes (a
// client should not retry an invalid query, but may retry a failed one).
var ErrInvalidQuery = errors.New("piersearch: invalid query")

// Query is one conjunctive keyword query for QueryContext.
type Query struct {
	// Text is the raw query string; it is tokenized with the search's
	// tokenizer.
	Text string
	// Strategy selects the query plan.
	Strategy Strategy
	// Limit caps the results (0 = unlimited). The cap is pushed into the
	// match phase: at most Limit candidate fileIDs are shipped or
	// fetched, and the stream terminates early once Limit results have
	// been produced.
	Limit int
}

// Catalog returns the plan catalog binding the PIERSearch relations, for
// callers composing their own operator trees or planners.
func Catalog() plan.Catalog {
	return plan.Catalog{
		PostingTable: TableInverted,
		CacheTable:   TableInvertedCache,
		ItemTable:    TableItem,
		JoinCol:      "fileID",
		TextCol:      "fulltext",
	}
}

// planStrategy maps the public strategy to the planner's.
func planStrategy(s Strategy) (plan.Strategy, error) {
	switch s {
	case StrategyJoin:
		return plan.StrategyJoin, nil
	case StrategyCache:
		return plan.StrategyCache, nil
	default:
		return 0, fmt.Errorf("piersearch: unknown strategy %d", s)
	}
}

// compile turns q into a compiled operator plan without opening it — the
// shared front half of QueryContext and Explain. Every failure here is a
// request-shape problem and carries ErrInvalidQuery.
func (s *Search) compile(q Query) (*plan.CompiledPlan, int, error) {
	keywords := s.tokenizer.Tokenize(q.Text)
	if len(keywords) == 0 {
		return nil, 0, fmt.Errorf("%w: %q has no indexable keywords", ErrInvalidQuery, q.Text)
	}
	strat, err := planStrategy(q.Strategy)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	planner := plan.Planner{Engine: s.engine, Catalog: Catalog()}
	compiled, err := planner.Plan(plan.Query{
		Terms:    keywords,
		Strategy: strat,
		Limit:    q.Limit,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	return compiled, len(keywords), nil
}

// Explain compiles q and renders the operator tree the planner chose,
// without executing anything: no DHT traffic, no stream to close.
func (s *Search) Explain(q Query) (string, error) {
	compiled, _, err := s.compile(q)
	if err != nil {
		return "", err
	}
	return compiled.Explain(), nil
}

// QueryContext compiles q into an operator plan, opens it under ctx, and
// returns a stream of results. Results arrive incrementally: each Next
// pulls the plan, so item tuples are fetched in bounded batches as the
// caller consumes, and a caller that stops early (or cancels ctx) stops
// the remaining fetches. The stream must be closed.
//
// QueryContext is the local execution path of the network query service:
// internal/service daemons answer each remote OpenQuery by running exactly
// this function on the node that received it, so library callers and
// remote clients share one API and one executor.
//
// Cancellation: once ctx is done, in-flight DHT round-trips abort and
// Next returns an error matching both plan.ErrCanceled and the context's
// own error.
func (s *Search) QueryContext(ctx context.Context, q Query) (*ResultStream, error) {
	start := time.Now()
	compiled, keywords, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	// Trace: continue the span already in ctx (a traced service stream),
	// or mint a fresh trace when the node has a tracer attached (local
	// callers with -trace). With neither, qsp is nil and every tracing
	// call below no-ops without allocating.
	ctx, qsp := telemetry.StartSpan(ctx, "piersearch.query")
	if qsp == nil {
		if tr := s.engine.Node().Tracer(); tr != nil {
			ctx, qsp = tr.StartRoot(ctx, "piersearch.query")
		}
	}
	if qsp != nil {
		qsp.SetAttr("q", q.Text)
		qsp.SetAttr("strategy", q.Strategy.String())
	}
	if err := compiled.Root.Open(ctx); err != nil {
		compiled.Root.Close() //nolint:errcheck // open failed; best-effort release
		qsp.FinishErr(err)
		return nil, err
	}
	return StreamFromSource(&planSource{
		strategy: q.Strategy,
		keywords: keywords,
		compiled: compiled,
		start:    start,
		sctx:     ctx,
		span:     qsp,
	}), nil
}

// Source produces results for a ResultStream: the local plan executor and
// the query service's remote client both implement it, which is what lets
// in-process and over-the-network queries share the ResultStream shape.
type Source interface {
	// Next returns the next result, or ErrDone at clean exhaustion.
	Next() (Result, error)
	// Close releases the source. Called at most once.
	Close() error
	// Stats reports the query's cost so far.
	Stats() SearchStats
}

// ExplainSource is implemented by sources that can render their query
// plan; ResultStream.Explain uses it.
type ExplainSource interface {
	Explain() string
}

// TraceSource is implemented by sources that carry distributed trace
// spans for their query; ResultStream.Trace uses it. Local plans
// return the spans the node's tracer collected (including those
// absorbed from remote owners); service streams return the spans the
// daemon shipped on Done.
type TraceSource interface {
	Trace() []telemetry.Span
}

// StreamFromSource wraps src in the public stream shape.
func StreamFromSource(src Source) *ResultStream { return &ResultStream{src: src} }

// planSource executes a compiled operator plan in-process: the local
// service path.
type planSource struct {
	strategy Strategy
	keywords int
	compiled *plan.CompiledPlan
	start    time.Time
	wall     time.Duration // fixed once the stream finishes or closes

	// Tracing state: sctx carries the query span for per-operator span
	// emission at finish; span is the query span itself (nil = untraced).
	sctx context.Context
	span *telemetry.ActiveSpan
}

func (ps *planSource) Next() (Result, error) {
	for {
		t, err := ps.compiled.Root.Next()
		if err != nil {
			ps.fixWall()
			return Result{}, err
		}
		file, id, err := FileFromItemTuple(t)
		if err != nil {
			continue // malformed or foreign tuple under this key: skip
		}
		return Result{File: file, FileID: id}, nil
	}
}

func (ps *planSource) Close() error {
	ps.fixWall()
	return ps.compiled.Root.Close()
}

func (ps *planSource) fixWall() {
	if ps.wall == 0 {
		ps.wall = time.Since(ps.start)
		// The query is over: emit the per-operator cost spans and close
		// the query span. No-ops when untraced.
		if ps.span != nil {
			plan.EmitSpans(ps.sctx, ps.compiled.Root)
			ps.span.Finish()
		}
	}
}

// Trace returns every span the executing node's tracer holds for this
// query — its own operators, its lookup probes and RPCs, and the spans
// absorbed from the remote owners that served them. Nil when untraced.
func (ps *planSource) Trace() []telemetry.Span {
	return ps.span.Tracer().TraceSpans(ps.span.Trace())
}

func (ps *planSource) Explain() string { return ps.compiled.Explain() }

func (ps *planSource) Stats() SearchStats {
	total := plan.TotalStats(ps.compiled.Root)
	match := ps.compiled.Match.Stats()
	stats := SearchStats{
		OpStats:    total.OpStats,
		Strategy:   ps.strategy,
		Keywords:   ps.keywords,
		Matches:    match.Tuples,
		MatchBytes: plan.TotalStats(ps.compiled.Match).Bytes,
		Wall:       ps.wall,
	}
	if stats.Wall == 0 {
		stats.Wall = time.Since(ps.start)
	}
	return stats
}

// ResultStream delivers query results incrementally. It is not safe for
// concurrent use.
type ResultStream struct {
	src    Source
	err    error // terminal error (ErrDone after clean exhaustion)
	closed bool
}

// Next returns the next result. It returns ErrDone once the stream is
// exhausted or closed (and on every later call), or the execution error
// that killed the stream. Item tuples that fail to parse are skipped,
// matching the legacy fetch phase's tolerance of churned-out holders.
func (rs *ResultStream) Next() (Result, error) {
	if rs.err != nil {
		return Result{}, rs.err
	}
	if rs.closed {
		// A closed stream has nothing more to deliver; report clean
		// exhaustion rather than racing the released plan.
		return Result{}, ErrDone
	}
	r, err := rs.src.Next()
	if err != nil {
		rs.err = err
		return Result{}, err
	}
	return r, nil
}

// Close releases the stream. Idempotent: the second and later calls
// return nil without touching the source. Safe after Next returned an
// error.
func (rs *ResultStream) Close() error {
	if rs.closed {
		return nil
	}
	rs.closed = true
	return rs.src.Close()
}

// Stats reports the query's cost so far: totals over the whole operator
// tree, plus the match-phase figures §7 compares between plans. The
// numbers grow as the stream is consumed and are final once Next has
// returned ErrDone or the stream is closed. For a remote stream the
// figures are the daemon's, one batch behind the results.
func (rs *ResultStream) Stats() SearchStats { return rs.src.Stats() }

// Explain renders the stream's query plan with the stats accrued so far,
// when the source can (local plans and service streams both can); it
// returns "" otherwise.
func (rs *ResultStream) Explain() string {
	if e, ok := rs.src.(ExplainSource); ok {
		return e.Explain()
	}
	return ""
}

// Trace returns the distributed trace spans collected for this query,
// or nil when tracing was off or the source cannot supply them. Most
// useful after the stream finishes; render with telemetry.RenderTree.
func (rs *ResultStream) Trace() []telemetry.Span {
	if t, ok := rs.src.(TraceSource); ok {
		return t.Trace()
	}
	return nil
}
