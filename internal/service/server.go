package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
	"piersearch/internal/telemetry"
	"piersearch/internal/wire"
)

// Options tune a daemon.
type Options struct {
	// MaxQueries bounds concurrently executing queries across all client
	// connections — the admission control. Excess OpenQuery requests are
	// refused immediately with CodeOverloaded rather than queued, so a
	// saturated daemon degrades by shedding load, not by growing latency.
	// 0 means 64.
	MaxQueries int
	// BatchSize caps results per Batch frame. The first result of every
	// query is flushed alone regardless, so time-to-first-result does not
	// wait for a batch to fill. 0 means 16.
	BatchSize int
	// PerClientQPS bounds the sustained rate of query and publish requests
	// one client connection may issue, as a token bucket refilled at this
	// many tokens per second. Requests beyond the bucket are refused with
	// CodeOverloaded and a retry-after hint, so one hot client sheds its
	// own excess instead of starving the shared MaxQueries admission pool.
	// 0 disables per-client limiting.
	PerClientQPS int
	// PerClientBurst is the token bucket's capacity — how many requests a
	// client may issue back-to-back before the rate bound bites. 0 means
	// PerClientQPS.
	PerClientBurst int
	// Logger receives structured operational events (refusals, failed
	// queries). Nil leaves the daemon silent.
	Logger *slog.Logger
	// Tracer, when set, records the daemon's side of distributed query
	// traces: one span per traced stream, parented under the client's
	// span, with the executor's plan/probe/RPC spans beneath it. The
	// spans collected for a traced query ship back on Done.
	Tracer *telemetry.Tracer
	// Metrics, when set, registers the daemon's service.* instruments
	// (admission, shed, per-code errors, TTFR) and the shared wire.mux.*
	// counters for every client session.
	Metrics *telemetry.Registry
}

func (o Options) maxQueries() int {
	if o.MaxQueries <= 0 {
		return 64
	}
	return o.MaxQueries
}

// maxBatchBytes bounds one Batch frame's result payload well under the
// transport's MaxFrame, so batching long filenames can never assemble an
// unsendable frame.
const maxBatchBytes = 1 << 20

// resultWireBound is an upper bound on r's encoded size in a Batch frame,
// from field lengths alone: the two strings plus, for everything else in
// an Item tuple (column count, five kind bytes, the 20-byte ID, two
// string length prefixes, two varints), at most 64 bytes.
func resultWireBound(r piersearch.Result) int {
	return len(r.File.Name) + len(r.File.Host) + 64
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return 16
	}
	return o.BatchSize
}

// tokenBucket is the per-connection admission bucket behind PerClientQPS.
// A nil bucket admits everything.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(qps, burst int) *tokenBucket {
	if qps <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = qps
	}
	return &tokenBucket{
		rate:   float64(qps),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// take consumes one token if available; otherwise it reports how long
// until the next token accrues, the client's retry-after hint.
func (b *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// retryAfterMs rounds a bucket wait up to whole milliseconds, never
// reporting zero for an actual refusal (a zero hint reads as "no hint").
func retryAfterMs(d time.Duration) int {
	ms := int((d + time.Millisecond - 1) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Server is a query-service daemon: it accepts mux sessions on a
// listener and answers the protocol of this package by executing query
// plans on its own node and streaming batches back.
type Server struct {
	search *piersearch.Search
	pub    *piersearch.Publisher
	opts   Options
	ln     net.Listener
	sem    chan struct{}
	log    *slog.Logger
	met    serverMetrics
	muxMet *wire.MuxMetrics

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	muxes  map[*wire.Mux]bool
}

// serverMetrics holds the daemon's pre-resolved instruments; the zero
// value (no registry) is all nil, which no-ops.
type serverMetrics struct {
	reg        *telemetry.Registry
	queries    *telemetry.Counter
	admitted   *telemetry.Counter
	shed       *telemetry.Counter
	shedClient *telemetry.Counter
	publishes  *telemetry.Counter
	ttfr       *telemetry.Histogram // ns from admission to first result flushed
	// errs is indexed by Code, pre-registered at construction so the
	// error path never mints a metric name at call time; slot 0 absorbs
	// any code outside the known enum.
	errs [CodeInternal + 1]*telemetry.Counter
}

// errCode resolves the per-code error counter; label-shaped variation
// lives in the metric name ("service.errors.overloaded").
func (m *serverMetrics) errCode(c Code) *telemetry.Counter {
	if c < 0 || int(c) >= len(m.errs) {
		c = 0
	}
	return m.errs[c]
}

// NewServer builds a daemon serving search (required) and pub (optional:
// nil refuses Publish requests) on ln.
func NewServer(ln net.Listener, search *piersearch.Search, pub *piersearch.Publisher, opts Options) *Server {
	s := &Server{
		search: search,
		pub:    pub,
		opts:   opts,
		ln:     ln,
		sem:    make(chan struct{}, opts.maxQueries()),
		log:    opts.Logger,
		muxes:  make(map[*wire.Mux]bool),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if reg := opts.Metrics; reg != nil {
		s.met = serverMetrics{
			reg:        reg,
			queries:    reg.Counter("service.queries"),
			admitted:   reg.Counter("service.admitted"),
			shed:       reg.Counter("service.shed.global"),
			shedClient: reg.Counter("service.shed.per_client"),
			publishes:  reg.Counter("service.publishes"),
			ttfr:       reg.Histogram("service.ttfr_ns"),
		}
		for c := CodeBadRequest; c <= CodeInternal; c++ {
			s.met.errs[c] = reg.Counter("service.errors." + c.String()) //lint:allow metricnames bounded by the Code enum, one registration per value at construction
		}
		s.met.errs[0] = reg.Counter("service.errors.unknown")
		reg.Gauge("service.active_queries", func() int64 { return int64(len(s.sem)) })
		s.muxMet = wire.RegisterMuxMetrics(reg)
	}
	return s
}

// Addr returns the daemon's listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts client connections until Close. Each connection becomes a
// mux session carrying any number of concurrent request streams.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		bucket := newTokenBucket(s.opts.PerClientQPS, s.opts.PerClientBurst)
		m := wire.NewServerMux(conn, func(st *wire.Stream, opening []byte) {
			// The Add is ordered against Close's Wait by s.mu: either this
			// handler registers before Close flips the flag, or it observes
			// the flag and backs out.
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				st.Close()
				return
			}
			s.wg.Add(1)
			s.mu.Unlock()
			defer s.wg.Done()
			s.handleStream(st, opening, bucket)
		})
		m.SetMetrics(s.muxMet)
		s.muxes[m] = true
		// Ordered against Close's Wait while still under s.mu, like the
		// stream-handler Add above.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			<-m.Done()
			s.mu.Lock()
			delete(s.muxes, m)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs every client session, and waits for
// handlers to finish.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	muxes := make([]*wire.Mux, 0, len(s.muxes))
	for m := range s.muxes {
		muxes = append(muxes, m)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, m := range muxes {
		m.Close()
	}
	s.wg.Wait()
}

// sendError best-effort ships a typed error and ends the stream. Bounded:
// a vanished peer must not pin the handler on a starved Send.
func (s *Server) sendError(st *wire.Stream, e *Error) {
	s.met.errCode(e.Code).Inc()
	// The request's own ctx may already be dead (that can be why we're
	// erroring); the farewell gets a detached, bounded window instead.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) //lint:allow ctxflow farewell send outlives the request ctx; the timeout bounds it
	defer cancel()
	st.Send(ctx, EncodeError(e)) //nolint:errcheck // peer may be gone
	st.CloseSend()               //nolint:errcheck // peer may be gone
	st.Close()
}

// handleStream answers one request stream. bucket is the per-connection
// admission bucket (nil = unlimited).
func (s *Server) handleStream(st *wire.Stream, opening []byte, bucket *tokenBucket) {
	// The version byte sits right after the kind byte in every request
	// message — an offset that is invariant across protocol versions — so
	// it is checked before the strict body decode. A future version whose
	// body layout differs then gets the documented CodeVersion answer,
	// not a misleading bad-request from trailing-bytes validation.
	if len(opening) >= 2 {
		switch opening[0] {
		case MsgOpenQuery, MsgExplain, MsgPublish:
			if opening[1] != Version {
				s.sendError(st, &Error{Code: CodeVersion,
					Msg: fmt.Sprintf("daemon speaks version %d, request is version %d", Version, opening[1])})
				return
			}
		}
	}
	msg, err := Decode(opening)
	if err != nil {
		s.log.Warn("service: bad request", "err", err)
		s.sendError(st, &Error{Code: CodeBadRequest, Msg: err.Error()})
		return
	}
	// Per-client admission sits before the global query semaphore: a
	// client hammering past its rate is refused with its own retry-after
	// hint and never competes for the shared MaxQueries pool. Explain and
	// cancel are exempt — they cost no DHT traffic.
	switch msg.(type) {
	case *OpenQuery, *PublishReq:
		if ok, wait := bucket.take(); !ok {
			s.met.shedClient.Inc()
			s.log.Warn("service: request refused: client over rate", "limit_qps", s.opts.PerClientQPS)
			s.sendError(st, &Error{Code: CodeOverloaded, RetryAfterMs: retryAfterMs(wait),
				Msg: fmt.Sprintf("client exceeds %d requests/s; retry after %dms", s.opts.PerClientQPS, retryAfterMs(wait))})
			return
		}
	}
	switch m := msg.(type) {
	case *OpenQuery:
		s.handleQuery(st, m)
	case *ExplainQuery:
		s.handleExplain(st, m)
	case *PublishReq:
		s.handlePublish(st, m)
	default:
		s.sendError(st, &Error{Code: CodeBadRequest, Msg: fmt.Sprintf("unexpected opening message %T", msg)})
	}
}

func toQuery(m *OpenQuery) piersearch.Query {
	return piersearch.Query{Text: m.Text, Strategy: m.Strategy, Limit: m.Limit}
}

// classify maps an execution error to a protocol error: cancellations and
// unanswerable requests get their own codes so a client's retry policy can
// tell "don't retry this query" from "the daemon failed, retry elsewhere".
func classify(err error) *Error {
	switch {
	case errors.Is(err, plan.ErrCanceled):
		return &Error{Code: CodeCanceled, Msg: err.Error()}
	case errors.Is(err, piersearch.ErrInvalidQuery):
		return &Error{Code: CodeBadRequest, Msg: err.Error()}
	default:
		return &Error{Code: CodeInternal, Msg: err.Error()}
	}
}

// handleQuery executes one streaming query: admission, plan execution on
// this node, batches pushed under flow control, Done with the final stats
// and cost profile.
func (s *Server) handleQuery(st *wire.Stream, m *OpenQuery) {
	defer st.Close()
	s.met.queries.Inc()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.met.shed.Inc()
		s.log.Warn("service: query refused: at concurrency limit", "q", m.Text, "limit", cap(s.sem))
		s.sendError(st, &Error{Code: CodeOverloaded, Msg: fmt.Sprintf("daemon at its limit of %d concurrent queries", cap(s.sem))})
		return
	}
	s.met.admitted.Inc()
	admitted := time.Now()

	// The query context ends when the client cancels (MsgCancel or stream
	// reset), the connection dies, or this handler returns.
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow handler root: the stream is the parent, and Close resets every stream
	defer cancel()

	// Traced query: the daemon's stream span parents under the client's
	// span from the OpenQuery envelope; QueryContext and everything
	// below it (plan operators, lookup probes, RPCs to owners) nest
	// beneath it via ctx.
	var qspan *telemetry.ActiveSpan
	if m.TraceID != 0 && s.opts.Tracer != nil {
		ctx, qspan = s.opts.Tracer.StartRemote(ctx, m.TraceID, m.SpanID, "service.query")
		qspan.SetAttr("q", m.Text)
	}
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			p, err := st.Recv(ctx)
			if err != nil {
				// Reset, connection death, or our own exit canceling ctx:
				// stop the query either way. (A graceful client never
				// half-closes a query stream, so io.EOF also means gone.)
				cancel()
				return
			}
			if len(p) > 0 && p[0] == MsgCancel {
				cancel()
				return
			}
		}
	}()
	defer func() { cancel(); <-watchDone }()

	rs, err := s.search.QueryContext(ctx, toQuery(m))
	if err != nil {
		qspan.FinishErr(err)
		if ctx.Err() == nil {
			// Compile failures carry ErrInvalidQuery → bad-request; a plan
			// whose Open died executing the match phase is the daemon's
			// problem → internal, so the client knows a retry can help.
			s.log.Warn("service: query failed to open", "q", m.Text, "err", err)
			s.sendError(st, classify(err))
		}
		return
	}
	defer rs.Close()

	batchSize := s.opts.batchSize()
	pending := make([]piersearch.Result, 0, batchSize)
	pendingBytes := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := st.Send(ctx, EncodeBatch(pending))
		pending, pendingBytes = pending[:0], 0
		if errors.Is(err, wire.ErrFrameTooLarge) && ctx.Err() == nil {
			// A single result too big for any frame: this query fails,
			// the client's other streams live on.
			s.sendError(st, &Error{Code: CodeInternal, Msg: err.Error()})
		}
		return err
	}
	first := true
	for {
		r, err := rs.Next()
		if errors.Is(err, piersearch.ErrDone) {
			break
		}
		if err != nil {
			qspan.FinishErr(err)
			qspan = nil
			if ctx.Err() == nil {
				s.log.Warn("service: query died mid-stream", "q", m.Text, "err", err)
				flush() //nolint:errcheck // stream already failing
				s.sendError(st, classify(err))
			}
			return
		}
		pending = append(pending, r)
		pendingBytes += resultWireBound(r)
		// The first result ships alone so the client's time-to-first-result
		// tracks the match phase; afterwards results batch up to BatchSize
		// results or maxBatchBytes, whichever the plan hits first — the
		// byte bound keeps a batch of long-named items far from the frame
		// limit, where an oversized payload would kill the query.
		if first || len(pending) >= batchSize || pendingBytes >= maxBatchBytes {
			if flush() != nil {
				qspan.FinishErr(ctx.Err())
				return
			}
			if first {
				s.met.ttfr.Observe(float64(time.Since(admitted)))
			}
			first = false
		}
	}
	if flush() != nil {
		qspan.FinishErr(ctx.Err())
		return
	}
	// Close the stream's span before collecting: the ring must hold it
	// for the client's tree to have a daemon-side root under its own
	// span. rs.Close ran implicitly when Next returned ErrDone (the plan
	// source fixes its wall clock and emits operator spans there).
	done := Done{Stats: rs.Stats(), Explain: rs.Explain()}
	if qspan != nil {
		qspan.Finish()
		done.Spans = s.opts.Tracer.TraceSpans(m.TraceID)
	}
	if st.Send(ctx, EncodeDone(done)) != nil {
		return
	}
	st.CloseSend() //nolint:errcheck // stream ends either way
}

// handleExplain compiles the query and returns the plan without executing
// anything.
func (s *Server) handleExplain(st *wire.Stream, m *ExplainQuery) {
	defer st.Close()
	text, err := s.search.Explain(toQuery(&m.OpenQuery))
	if err != nil {
		s.sendError(st, &Error{Code: CodeBadRequest, Msg: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) //lint:allow ctxflow one-shot reply on a request with no ctx of its own; the timeout bounds it
	defer cancel()
	if st.Send(ctx, EncodeExplainResult(text)) != nil {
		return
	}
	st.CloseSend() //nolint:errcheck // stream ends either way
}

// handlePublish indexes one file through the daemon's publisher.
func (s *Server) handlePublish(st *wire.Stream, m *PublishReq) {
	defer st.Close()
	s.met.publishes.Inc()
	if s.pub == nil {
		s.sendError(st, &Error{Code: CodeBadRequest, Msg: "daemon does not accept publishes"})
		return
	}
	if m.Mode < piersearch.ModeInverted || m.Mode > piersearch.ModeBoth {
		s.sendError(st, &Error{Code: CodeBadRequest, Msg: fmt.Sprintf("unknown publish mode %d", m.Mode)})
		return
	}
	stats, err := s.pub.WithMode(m.Mode).PublishFile(m.File)
	if err != nil {
		s.sendError(st, &Error{Code: CodeBadRequest, Msg: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) //lint:allow ctxflow one-shot reply on a request with no ctx of its own; the timeout bounds it
	defer cancel()
	if st.Send(ctx, EncodePublishDone(PublishDone{Stats: stats})) != nil {
		return
	}
	st.CloseSend() //nolint:errcheck // stream ends either way
}
