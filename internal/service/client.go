package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
	"piersearch/internal/telemetry"
	"piersearch/internal/wire"
)

// Client talks to a query-service daemon. One client keeps one mux
// session to the daemon; every Query/Explain/Publish runs on its own
// stream, so calls are safe for concurrent use and interleave on the
// connection. A broken session redials transparently on the next call.
//
// Client.Query returns the same *piersearch.ResultStream shape the
// in-process API returns, so a caller can switch between linking a node
// and pointing at a daemon without touching its consumption loop.
type Client struct {
	addr string
	// DialTimeout bounds session establishment (default 5s).
	DialTimeout time.Duration
	// Window is the per-query receive window in batch frames: how far the
	// daemon may run ahead of this consumer (default wire.DefaultWindow).
	Window int
	// Tracer, when set, traces every query: a root span is minted per
	// Query call, its context ships in the OpenQuery envelope, and the
	// spans the daemon collected (its own, the plan's, the owners')
	// arrive back on Done — ResultStream.Trace returns the assembled
	// set. Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer

	mu  sync.Mutex
	mux *wire.Mux // owns its connection; failure closes it
}

// Dial returns a client for the daemon at addr. The connection is
// established lazily on the first call, so Dial itself cannot fail.
func Dial(addr string) *Client {
	return &Client{addr: addr, DialTimeout: 5 * time.Second}
}

// Close severs the session. The client is dead afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mux != nil {
		c.mux.Close()
		c.mux = nil
	}
	return nil
}

// session returns the live mux, dialing a fresh one if the previous
// session broke.
func (c *Client) session(ctx context.Context) (*wire.Mux, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mux != nil {
		select {
		case <-c.mux.Done():
			c.mux = nil // session died; redial below
		default:
			return c.mux, nil
		}
	}
	d := net.Dialer{Timeout: c.DialTimeout}
	// Redial is deliberately serialized under c.mu: concurrent callers
	// need the one session being built, so racing dials would only shed
	// connections. DialTimeout (and the caller's ctx) bound the hold.
	conn, err := d.DialContext(ctx, "tcp", c.addr) //lint:allow locksafe redial is serialized by design; DialTimeout bounds the hold
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", c.addr, err)
	}
	c.mux = wire.NewClientMux(conn)
	return c.mux, nil
}

func (c *Client) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return wire.DefaultWindow
}

func fromQuery(q piersearch.Query) OpenQuery {
	return OpenQuery{Version: Version, Text: q.Text, Strategy: q.Strategy, Limit: q.Limit}
}

// Query submits q to the daemon and returns a result stream. Results
// arrive as the daemon's plan produces them; protocol and execution
// failures surface from Next. Canceling ctx resets the stream, which
// cancels the daemon-side query context and aborts its in-flight DHT
// round-trips; Next then returns an error matching plan.ErrCanceled.
func (c *Client) Query(ctx context.Context, q piersearch.Query) (*piersearch.ResultStream, error) {
	m, err := c.session(ctx)
	if err != nil {
		return nil, err
	}
	// Trace: continue a span already in ctx, or mint a root trace when
	// the client has a tracer. The IDs ride in the OpenQuery envelope so
	// the daemon's spans parent under ours.
	open := fromQuery(q)
	_, qspan := telemetry.StartSpan(ctx, "query")
	if qspan == nil && c.Tracer != nil {
		_, qspan = c.Tracer.StartRoot(ctx, "query")
	}
	if qspan != nil {
		qspan.SetAttr("q", q.Text)
		qspan.SetAttr("daemon", c.addr)
		open.TraceID, open.SpanID = qspan.Trace(), qspan.ID()
	}
	st, err := m.Open(EncodeOpenQuery(open), c.window())
	if err != nil {
		qspan.FinishErr(err)
		return nil, fmt.Errorf("service: open query stream: %w", err)
	}
	src := &remoteSource{ctx: ctx, st: st, start: time.Now(), strategy: q.Strategy}
	if qspan != nil {
		src.span, src.tracer, src.trace = qspan, qspan.Tracer(), qspan.Trace()
	}
	// A canceled caller context tells the daemon to stop: Cancel for an
	// orderly end, then reset so even a daemon stuck producing observes it.
	src.stopCancel = context.AfterFunc(ctx, func() {
		//lint:allow ctxflow runs after the caller ctx is already canceled; Background is the only live parent for the farewell Cancel
		st.Send(context.Background(), EncodeCancel()) //nolint:errcheck // reset follows either way
		st.Reset("query canceled")
	})
	return piersearch.StreamFromSource(src), nil
}

// Explain asks the daemon for the plan it would run for q, without
// executing anything.
func (c *Client) Explain(ctx context.Context, q piersearch.Query) (string, error) {
	resp, err := c.roundTrip(ctx, EncodeExplain(fromQuery(q)))
	if err != nil {
		return "", err
	}
	res, ok := resp.(*ExplainResult)
	if !ok {
		return "", fmt.Errorf("service: explain answered with %T", resp)
	}
	return res.Text, nil
}

// Publish indexes f through the daemon under mode.
func (c *Client) Publish(ctx context.Context, f piersearch.File, mode piersearch.PublishMode) (piersearch.PublishStats, error) {
	resp, err := c.roundTrip(ctx, EncodePublish(PublishReq{Version: Version, File: f, Mode: mode}))
	if err != nil {
		return piersearch.PublishStats{}, err
	}
	res, ok := resp.(*PublishDone)
	if !ok {
		return piersearch.PublishStats{}, fmt.Errorf("service: publish answered with %T", resp)
	}
	return res.Stats, nil
}

// roundTrip runs a one-shot request stream: open with the request, read
// one response message, close.
func (c *Client) roundTrip(ctx context.Context, req []byte) (any, error) {
	m, err := c.session(ctx)
	if err != nil {
		return nil, err
	}
	st, err := m.Open(req, c.window())
	if err != nil {
		return nil, fmt.Errorf("service: open stream: %w", err)
	}
	defer st.Close()
	p, err := st.Recv(ctx)
	if err != nil {
		return nil, fmt.Errorf("service: awaiting response: %w", err)
	}
	resp, err := Decode(p)
	if err != nil {
		return nil, err
	}
	if e, ok := resp.(*Error); ok {
		return nil, e
	}
	return resp, nil
}

// remoteSource adapts a query stream to piersearch.Source.
type remoteSource struct {
	ctx        context.Context
	st         *wire.Stream
	stopCancel func() bool
	strategy   piersearch.Strategy
	start      time.Time

	pending []piersearch.Result
	stats   piersearch.SearchStats
	explain string
	gotDone bool
	done    bool

	// span is the client-side query span (nil = untraced); finished when
	// the stream ends. The daemon's spans arriving on Done are absorbed
	// into the tracer's ring so Trace() can assemble the full tree.
	span   *telemetry.ActiveSpan
	tracer *telemetry.Tracer
	trace  telemetry.TraceID
}

// Next returns the next result, pulling and acknowledging batch frames as
// the pending window drains.
func (s *remoteSource) Next() (piersearch.Result, error) {
	for {
		if len(s.pending) > 0 {
			r := s.pending[0]
			s.pending = s.pending[1:]
			return r, nil
		}
		if s.done {
			return piersearch.Result{}, plan.ErrDone
		}
		p, err := s.st.Recv(s.ctx)
		if err != nil {
			return piersearch.Result{}, s.terminalError(err)
		}
		s.st.Grant(1) // frame consumed: let the daemon push the next one
		msg, err := Decode(p)
		if err != nil {
			return piersearch.Result{}, err
		}
		switch m := msg.(type) {
		case *Batch:
			s.pending = m.Results
		case *Done:
			s.done, s.gotDone = true, true
			s.stats = m.Stats
			s.explain = m.Explain
			if s.span != nil {
				s.span.Tracer().Absorb(m.Spans)
				s.span.Finish()
				s.span = nil
			}
		case *Error:
			s.done = true
			if m.Code == CodeCanceled {
				return piersearch.Result{}, plan.Canceled(m)
			}
			return piersearch.Result{}, m
		default:
			return piersearch.Result{}, fmt.Errorf("service: unexpected %T mid-stream", msg)
		}
	}
}

// terminalError classifies a stream failure: the caller's cancellation
// surfaces like a canceled plan, everything else as the transport error.
func (s *remoteSource) terminalError(err error) error {
	if s.ctx.Err() != nil {
		return plan.Canceled(s.ctx.Err())
	}
	if errors.Is(err, io.EOF) {
		// The daemon half-closed without Done: it died mid-answer.
		return fmt.Errorf("service: stream ended without Done")
	}
	return err
}

// Close releases the stream; a still-live query is reset, which cancels
// it on the daemon.
func (s *remoteSource) Close() error {
	s.stopCancel()
	if s.span != nil {
		s.span.Finish()
		s.span = nil
	}
	return s.st.Close()
}

// Trace returns the spans collected for this query: the client's own
// root span plus everything the daemon shipped on Done. Nil when the
// query is untraced.
func (s *remoteSource) Trace() []telemetry.Span {
	if s.tracer == nil || s.trace == 0 {
		return nil
	}
	return s.tracer.TraceSpans(s.trace)
}

// Stats reports the daemon's final figures once Done arrives; before
// that, only the client-side wall clock is known.
func (s *remoteSource) Stats() piersearch.SearchStats {
	if s.gotDone {
		return s.stats
	}
	return piersearch.SearchStats{Strategy: s.strategy, Wall: time.Since(s.start)}
}

// Explain returns the executed plan's cost profile, shipped with Done.
func (s *remoteSource) Explain() string { return s.explain }
