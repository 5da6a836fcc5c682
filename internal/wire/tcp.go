package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
)

// TCPTransport implements dht.Transport over TCP with a small pool of
// connections per destination. It is safe for concurrent use: each RPC
// owns one pooled connection for its round-trip, so up to MaxConnsPerHost
// calls to the same destination proceed in parallel and further callers
// queue — the per-connection locking the concurrent query/publish pipeline
// relies on to overlap wide-area round-trips.
type TCPTransport struct {
	DialTimeout time.Duration // default 5s
	CallTimeout time.Duration // per-RPC deadline, default 10s
	// Delay, if set, sleeps before each call — wide-area latency injection
	// for single-machine deployments (the paper's nodes were continents
	// apart; loopback is not).
	Delay time.Duration
	// MaxConnsPerHost bounds the parallel connections kept per
	// destination. Zero means 4. Set before the first Call.
	MaxConnsPerHost int

	mu         sync.Mutex
	conns      map[string]*hostPool
	closed     bool
	dialCtx    context.Context    // canceled by Close, aborting in-flight dials
	dialCancel context.CancelFunc // lazily created with dialCtx
}

// hostPool is the connection pool for one destination: a semaphore
// bounding concurrent round-trips plus a free list of idle connections.
type hostPool struct {
	sem    chan struct{}
	mu     sync.Mutex
	free   []net.Conn
	closed bool
}

func (hp *hostPool) get() net.Conn {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if n := len(hp.free); n > 0 {
		c := hp.free[n-1]
		hp.free = hp.free[:n-1]
		return c
	}
	return nil
}

func (hp *hostPool) put(c net.Conn) {
	hp.mu.Lock()
	if hp.closed {
		hp.mu.Unlock()
		c.Close()
		return
	}
	hp.free = append(hp.free, c)
	hp.mu.Unlock()
}

// NewTCPTransport returns a ready transport.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		DialTimeout: 5 * time.Second,
		CallTimeout: 10 * time.Second,
		conns:       make(map[string]*hostPool),
	}
}

func (t *TCPTransport) pool(addr string) (*hostPool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("wire: transport closed")
	}
	hp, ok := t.conns[addr]
	if !ok {
		max := t.MaxConnsPerHost
		if max <= 0 {
			max = 4
		}
		hp = &hostPool{sem: make(chan struct{}, max)}
		t.conns[addr] = hp
	}
	return hp, nil
}

// dialContext returns the context that aborts in-flight dials on Close,
// creating it on first use. If Close already ran, the context comes back
// canceled, so a Call racing Close cannot start an uncancelable dial.
func (t *TCPTransport) dialContext() context.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dialCtx == nil {
		t.dialCtx, t.dialCancel = context.WithCancel(context.Background()) //lint:allow ctxflow this IS the transport's cancellation root; Close cancels it
		if t.closed {
			t.dialCancel()
		}
	}
	return t.dialCtx
}

// CallContext implements dht.Transport. The context governs the
// whole round-trip: waiting for a pooled-connection slot, the dial, and
// the framed read/write (the connection deadline is the earlier of the
// context deadline and CallTimeout; cancellation severs an in-flight
// round-trip immediately). Once ctx is done the returned error wraps
// ctx.Err(), so a deadline surfaces as context.DeadlineExceeded rather
// than a raw net timeout.
func (t *TCPTransport) CallContext(ctx context.Context, to dht.NodeInfo, req *dht.Request) (*dht.Response, error) {
	if t.Delay > 0 {
		timer := time.NewTimer(t.Delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("wire: call %s: %w", to.Addr, ctx.Err())
		}
	}
	hp, err := t.pool(to.Addr)
	if err != nil {
		return nil, err
	}
	select {
	case hp.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("wire: call %s: %w", to.Addr, ctx.Err())
	}
	defer func() { <-hp.sem }()

	conn := hp.get()
	pooled := conn != nil
	resp, conn, err := t.callOnce(ctx, conn, to.Addr, req)
	if err != nil && pooled && ctx.Err() == nil {
		// Stale pooled connection: retry once on a fresh dial.
		if conn != nil {
			conn.Close()
		}
		resp, conn, err = t.callOnce(ctx, nil, to.Addr, req)
	}
	if err != nil {
		if conn != nil {
			conn.Close()
		}
		// A round-trip severed by the context reports the context's error,
		// not the net-layer timeout it was converted into. The connection
		// deadline can fire a beat before the context's own timer marks it
		// done, so an expired context deadline plus a net timeout is also
		// the context's doing.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("wire: call %s: %w", to.Addr, ctxErr)
		}
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, fmt.Errorf("wire: call %s: %w", to.Addr, context.DeadlineExceeded)
			}
		}
		return nil, fmt.Errorf("wire: call %s: %w", to.Addr, err)
	}
	hp.put(conn)
	return resp, nil
}

// callOnce performs one framed round-trip, dialing when conn is nil. It
// returns the connection it used so the caller can pool or close it.
func (t *TCPTransport) callOnce(ctx context.Context, conn net.Conn, addr string, req *dht.Request) (*dht.Response, net.Conn, error) {
	if conn == nil {
		// The dial aborts when either the per-call context or the
		// transport-wide close context fires.
		dctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(t.dialContext(), cancel)
		d := net.Dialer{Timeout: t.DialTimeout}
		c, err := d.DialContext(dctx, "tcp", addr)
		stop()
		cancel()
		if err != nil {
			return nil, nil, err
		}
		conn = c
	}
	deadline := time.Now().Add(t.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, conn, err
	}
	// Cancellation (as opposed to a deadline) severs the in-flight
	// round-trip by expiring the connection deadline immediately; the
	// caller maps the resulting timeout back to ctx.Err().
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // best-effort abort
	})
	resp, err := func() (*dht.Response, error) {
		if err := WriteFrame(conn, EncodeRequest(req)); err != nil {
			return nil, err
		}
		payload, err := ReadFrame(conn)
		if err != nil {
			return nil, err
		}
		resp, err := DecodeResponse(payload)
		codec.PutBuf(payload) // decode copies what it keeps
		return resp, err
	}()
	if !stop() && err == nil {
		// The abort hook fired (or is in flight) even though the
		// round-trip won the race: the connection's deadline is, or is
		// about to be, poisoned. Fail the call — the caller canceled
		// anyway — so the connection is closed rather than pooled with a
		// stale deadline that would kill the next borrower's RPC.
		if err = ctx.Err(); err == nil {
			err = context.Canceled
		}
	}
	return resp, conn, err
}

// Close shuts the transport down: it aborts in-flight dials, drops and
// closes all idle pooled connections, marks the pools closed so
// connections currently carrying an RPC are closed when that call finishes
// instead of being re-pooled, and fails all future Calls.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.dialCancel != nil {
		t.dialCancel()
	}
	for _, hp := range t.conns {
		hp.mu.Lock()
		hp.closed = true
		for _, c := range hp.free {
			c.Close()
		}
		hp.free = nil
		hp.mu.Unlock()
	}
}

// Server accepts DHT RPCs for one node.
type Server struct {
	node *dht.Node
	ln   net.Listener
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
	active map[net.Conn]bool
}

// Listen opens a listener on addr ("host:0" picks a free port) and returns
// it so the caller can construct the node with the final address before
// serving. Typical startup:
//
//	ln, _ := wire.Listen("127.0.0.1:0")
//	node := dht.NewNode(dht.NodeInfo{ID: dht.RandomID(), Addr: ln.Addr().String()}, transport, cfg)
//	srv := wire.NewServer(node, ln)
//	go srv.Serve()
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// NewServer wraps an accepted listener around a node.
func NewServer(node *dht.Node, ln net.Listener) *Server {
	return &Server{node: node, ln: ln, active: make(map[net.Conn]bool)}
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Close. Each connection handles a stream
// of request frames sequentially.
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
		s.active[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.active, conn)
		s.mu.Unlock()
	}()
	for {
		payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		req, err := DecodeRequest(payload)
		codec.PutBuf(payload) // decode copies what it keeps
		if err != nil {
			return
		}
		resp := s.node.HandleRPC(req)
		if err := WriteFrame(conn, EncodeResponse(resp)); err != nil {
			return
		}
	}
}

// Close stops accepting, severs open connections, and waits for handler
// goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.active {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}
