package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/telemetry"
)

// This file extends the transport from one-shot Call round-trips to
// multiplexed streams: many logical byte-payload streams share one TCP
// connection, each with its own ID, lifecycle, and credit-based flow
// control. The query service (internal/service) runs its OpenQuery /
// batch-push / cancel protocol over these streams.
//
// Mux frame layout, inside the existing 4-byte length prefix:
//
//	uvarint streamID | byte kind | body
//
// Kinds:
//
//	open   (1)  body = uvarint window, opening payload. Sent by the dialing
//	            side to create a stream; window is the number of data
//	            frames the opener is prepared to buffer (credits granted
//	            to the accepting side). The acceptor answers with a credit
//	            frame granting its own window, so both directions start
//	            with credit.
//	data   (2)  body = payload. Consumes one send credit.
//	credit (3)  body = uvarint n. Grants the peer n more data frames.
//	close  (4)  graceful end of the sender's direction; queued data
//	            frames are still delivered, then Recv returns io.EOF.
//	reset  (5)  body = string reason. Aborts the stream in both
//	            directions immediately.
//
// Frames are not writes. A frame is appended to the session's pending
// buffer and a flusher goroutine hands whatever has accumulated to the
// socket in one Write, so the frames a handler queues back to back (a
// query's batches, its Done, the close and the reset that release the
// stream) and the frames other streams queue while a write is in the
// kernel leave together. What that changes for callers:
//
//   - Send, Grant, CloseSend, Reset and Open returning nil mean the frame
//     is queued, in order, behind every frame queued before it on this
//     connection — not that it reached the socket. A later write error
//     fails the session and every stream on it; the next call returns that
//     error.
//   - Mux.Close first writes what is queued (waiting at most
//     closeDrainWait for a peer that has stopped reading), then closes the
//     socket: a Send followed by Close, of the stream or of the session, is
//     delivered. A session that dies on its own (read or write error) drops
//     what was queued — there is nobody left to deliver it to.
//   - A payload above coalesceFrameLimit is not copied: its Send writes
//     what is pending and then the frame itself, and returns once the
//     socket has taken it.
//
// The read loop reads through a small buffer, so a burst of small frames
// costs one read, not two per frame.
const (
	frameOpen byte = iota + 1
	frameData
	frameCredit
	frameClose
	frameReset
)

// DefaultWindow is the per-stream receive window (in data frames) used
// when the opener passes no explicit window.
const DefaultWindow = 8

const (
	// maxPendingBytes bounds the frames queued for the flusher: a caller
	// that would queue past it waits for the flusher to drain. Credits
	// already bound data frames per stream; this bounds the session, and
	// the control frames credits do not cover. 64 KiB is a few dozen
	// batch frames — more than one socket write usefully carries.
	maxPendingBytes = 64 << 10
	// pendingKeepBytes is the largest write buffer an idle session keeps:
	// one that grew past it in a burst is dropped after its write, so ten
	// thousand quiet client sessions do not pin ten thousand burst-sized
	// buffers.
	pendingKeepBytes = 8 << 10
	// muxReadBuf sizes the read loop's buffer. A query's answer is a
	// handful of sub-kilobyte frames; 4 KiB takes the burst in one read,
	// and larger payloads bypass the buffer (bufio reads them straight
	// into the frame). One per session end — the DHT RPC path, with
	// thousands of pooled connections, deliberately has none.
	muxReadBuf = 4 << 10
	// closeDrainWait bounds how long Close waits for queued frames to
	// reach the socket before closing it under a peer that stopped
	// reading.
	closeDrainWait = time.Second
)

// StreamResetError reports that the peer (or the local Close) aborted the
// stream.
type StreamResetError struct{ Reason string }

func (e *StreamResetError) Error() string {
	if e.Reason == "" {
		return "wire: stream reset"
	}
	return "wire: stream reset: " + e.Reason
}

// Mux multiplexes streams over one connection. The side that dialed the
// connection opens streams with Open; the accepting side receives each new
// stream through the handler passed to NewServerMux. All methods are safe
// for concurrent use; one Stream's Send (or Recv) must not be called from
// two goroutines at once.
type Mux struct {
	conn    net.Conn
	handler func(*Stream, []byte) // nil on the client side

	// Write side. writeMu serialises socket writes (the flusher's, a large
	// frame's own, Close's drain) and is taken before queueMu; queueMu
	// guards the pending buffer and is all a small frame's sender takes.
	writeMu  sync.Mutex
	queueMu  sync.Mutex
	pending  []byte        // queued frames, length prefixes included
	spare    []byte        // the flusher's other buffer, swapped per write
	queueErr error         // set by fail: nothing more is queued
	space    sync.Cond     // on queueMu: pending shrank, or the session failed
	wake     chan struct{} // cap 1: pending went non-empty
	loops    sync.WaitGroup

	// met holds the session's metric instruments; set after construction
	// (the read loop is already running) so it lives in an atomic
	// pointer. Nil pointer or nil counters no-op.
	met atomic.Pointer[MuxMetrics]

	mu      sync.Mutex
	streams map[uint64]*Stream
	nextID  uint64
	err     error         // terminal mux error
	done    chan struct{} // closed when the read loop exits
}

// MuxMetrics are the per-session wire counters a mux reports when
// attached with SetMetrics. Any field may be nil.
type MuxMetrics struct {
	FramesIn     *telemetry.Counter
	FramesOut    *telemetry.Counter // frames queued for the socket
	Flushes      *telemetry.Counter // trips to the socket; FramesOut/Flushes = frames per write
	BytesIn      *telemetry.Counter
	BytesOut     *telemetry.Counter
	CreditStalls *telemetry.Counter // Sends that had to wait for credit
	Resets       *telemetry.Counter
}

// RegisterMuxMetrics resolves the shared wire.* instruments on reg.
// Sessions created for the same registry share counters, so the totals
// aggregate across connections.
func RegisterMuxMetrics(reg *telemetry.Registry) *MuxMetrics {
	if reg == nil {
		return nil
	}
	return &MuxMetrics{
		FramesIn:     reg.Counter("wire.mux.frames_in"),
		FramesOut:    reg.Counter("wire.mux.frames_out"),
		Flushes:      reg.Counter("wire.mux.flushes"),
		BytesIn:      reg.Counter("wire.mux.bytes_in"),
		BytesOut:     reg.Counter("wire.mux.bytes_out"),
		CreditStalls: reg.Counter("wire.mux.credit_stalls"),
		Resets:       reg.Counter("wire.mux.resets"),
	}
}

// SetMetrics attaches counters to the session. Safe while the read
// loop is running; nil detaches.
func (m *Mux) SetMetrics(mm *MuxMetrics) { m.met.Store(mm) }

// NewClientMux wraps conn as the stream-opening side of a mux session and
// starts its read loop and flusher.
func NewClientMux(conn net.Conn) *Mux { return newMux(conn, nil, 1) }

// NewServerMux wraps conn as the accepting side: handler runs in its own
// goroutine for every stream the peer opens, receiving the stream and the
// opening payload. The read loop and flusher start immediately.
func NewServerMux(conn net.Conn, handler func(st *Stream, opening []byte)) *Mux {
	return newMux(conn, handler, 0)
}

func newMux(conn net.Conn, handler func(*Stream, []byte), firstID uint64) *Mux {
	m := &Mux{
		conn:    conn,
		handler: handler,
		streams: make(map[uint64]*Stream),
		nextID:  firstID,
		done:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
	}
	m.space.L = &m.queueMu
	m.loops.Add(2)
	go m.readLoop()
	go m.flushLoop()
	return m
}

// Done is closed when the mux session ends (connection failure or Close).
func (m *Mux) Done() <-chan struct{} { return m.done }

// Close tears the session down: frames already queued are written (for at
// most closeDrainWait), the connection is closed, every open stream fails
// with the mux error, and the read loop and flusher have exited when it
// returns.
func (m *Mux) Close() error {
	m.conn.SetWriteDeadline(time.Now().Add(closeDrainWait)) //nolint:errcheck // a conn without deadlines drains unbounded, as it wrote before
	m.flush(nil)                                            //nolint:errcheck // closing either way
	err := m.conn.Close()
	m.fail(fmt.Errorf("wire: mux closed"))
	m.loops.Wait()
	return err
}

// fail marks the mux broken and propagates err to all streams. Idempotent;
// the first error wins. The connection is closed here, not just in Close:
// a session that dies from a read/write error must release its socket
// rather than leak it into CLOSE_WAIT.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	m.conn.Close() //nolint:errcheck // already failing
	streams := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.streams = map[uint64]*Stream{}
	m.mu.Unlock()
	m.queueMu.Lock()
	m.queueErr = err
	m.pending, m.spare = nil, nil
	m.space.Broadcast()
	m.queueMu.Unlock()
	for _, st := range streams {
		st.terminate(err)
	}
	close(m.done)
}

// Open creates a new stream, delivering opening to the peer's handler.
// window is the number of data frames this side is prepared to buffer
// before the peer must wait for credits (0 means DefaultWindow).
func (m *Mux) Open(opening []byte, window int) (*Stream, error) {
	if window <= 0 {
		window = DefaultWindow
	}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	if m.handler != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("wire: accepting side cannot open streams")
	}
	id := m.nextID
	m.nextID++
	st := newStream(m, id, window)
	m.streams[id] = st
	m.mu.Unlock()

	body := codec.AppendUvarint(nil, uint64(window))
	body = append(body, opening...)
	if err := m.writeFrame(id, frameOpen, body); err != nil {
		m.unregister(id)
		st.terminate(err)
		return nil, err
	}
	return st, nil
}

func (m *Mux) unregister(id uint64) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

func (m *Mux) lookup(id uint64) *Stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streams[id]
}

// ErrFrameTooLarge reports a payload that cannot fit one mux frame. It is
// a local validation failure of that one Send — the session stays up.
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds %d-byte limit", MaxFrame)

// writeFrame queues one mux frame behind every frame queued before it. An
// over-limit payload fails only the calling stream, before anything is
// queued; on a failed session it returns the session's error. A small
// frame is copied into the pending buffer for the flusher; a large one is
// written from the caller's slice once what is pending has left.
func (m *Mux) writeFrame(id uint64, kind byte, body []byte) error {
	if len(body)+binary.MaxVarintLen64+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	if len(body) > coalesceFrameLimit {
		var head [4 + binary.MaxVarintLen64 + 1]byte
		h := codec.AppendUvarint(head[:4], id)
		h = append(h, kind)
		binary.BigEndian.PutUint32(h, uint32(len(h)-4+len(body)))
		err := m.flush(net.Buffers{h, body})
		if err != nil {
			m.fail(fmt.Errorf("wire: mux write: %w", err))
			return err
		}
		m.countFrame(kind, len(h)+len(body))
		return nil
	}
	m.queueMu.Lock()
	for len(m.pending) >= maxPendingBytes && m.queueErr == nil {
		m.space.Wait()
	}
	if err := m.queueErr; err != nil {
		m.queueMu.Unlock()
		return err
	}
	off := len(m.pending)
	p := append(m.pending, 0, 0, 0, 0)
	p = codec.AppendUvarint(p, id)
	p = append(p, kind)
	p = append(p, body...)
	binary.BigEndian.PutUint32(p[off:], uint32(len(p)-off-4))
	m.pending = p
	m.queueMu.Unlock()
	if off == 0 {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	m.countFrame(kind, len(p)-off)
	return nil
}

func (m *Mux) countFrame(kind byte, wireBytes int) {
	if mm := m.met.Load(); mm != nil {
		mm.FramesOut.Inc()
		mm.BytesOut.Add(int64(wireBytes))
		if kind == frameReset {
			mm.Resets.Inc()
		}
	}
}

// flush writes the pending frames, then tail (a large frame's header and
// payload, or nil), as one trip to the socket. Everything queued before
// the call has been handed to the socket when it returns nil.
func (m *Mux) flush(tail net.Buffers) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	m.queueMu.Lock()
	if err := m.queueErr; err != nil {
		m.queueMu.Unlock()
		return err
	}
	buf := m.pending
	if len(buf) == 0 && len(tail) == 0 {
		m.queueMu.Unlock()
		return nil
	}
	m.pending, m.spare = m.spare[:0], nil
	if len(buf) >= maxPendingBytes {
		m.space.Broadcast()
	}
	m.queueMu.Unlock()
	// Count the trip before making it: a peer that has read the bytes must
	// find them counted, and a failed write fails the whole session anyway.
	if mm := m.met.Load(); mm != nil {
		mm.Flushes.Inc()
	}
	var err error
	if len(tail) == 0 {
		_, err = m.conn.Write(buf)
	} else {
		// One writev on a TCP conn; pending frames first, so order holds.
		if len(buf) > 0 {
			tail = append(net.Buffers{buf}, tail...)
		}
		_, err = tail.WriteTo(m.conn)
	}
	m.recycle(buf)
	return err
}

// recycle hands a written buffer back as the flusher's spare, unless a
// burst grew it past what an idle session should keep.
func (m *Mux) recycle(buf []byte) {
	if cap(buf) > pendingKeepBytes {
		return
	}
	m.queueMu.Lock()
	if m.queueErr == nil {
		m.spare = buf[:0]
	}
	m.queueMu.Unlock()
}

// flushLoop is the session's flusher: woken when the pending buffer goes
// non-empty, it writes whatever has accumulated by the time it runs. It
// exits with the session.
func (m *Mux) flushLoop() {
	defer m.loops.Done()
	for {
		select {
		case <-m.wake:
		case <-m.done:
			return
		}
		if err := m.flush(nil); err != nil {
			m.fail(fmt.Errorf("wire: mux write: %w", err))
			return
		}
	}
}

// readLoop dispatches incoming frames to their streams until the
// connection fails.
func (m *Mux) readLoop() {
	defer m.loops.Done()
	br := bufio.NewReaderSize(m.conn, muxReadBuf)
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			m.fail(fmt.Errorf("wire: mux read: %w", err))
			return
		}
		if mm := m.met.Load(); mm != nil {
			mm.FramesIn.Inc()
			mm.BytesIn.Add(int64(len(payload) + 4))
		}
		r := codec.NewReader(payload)
		id := r.Uvarint()
		kind := r.Byte()
		if r.Err() != nil {
			codec.PutBuf(payload)
			m.fail(fmt.Errorf("wire: malformed mux frame"))
			return
		}
		m.dispatch(id, kind, r)
		codec.PutBuf(payload)
	}
}

// dispatch routes one frame. The body reader aliases a pooled buffer, so
// everything retained is copied out here.
func (m *Mux) dispatch(id uint64, kind byte, r *codec.Reader) {
	switch kind {
	case frameOpen:
		if m.handler == nil {
			// Only the accepting side receives opens; a client getting one
			// is a protocol violation by the peer. Refuse the stream.
			m.writeFrame(id, frameReset, codec.AppendString(nil, "unexpected open")) //nolint:errcheck // best-effort refusal
			return
		}
		window := int(r.Uvarint())
		if r.Err() != nil || window <= 0 || window > 1<<16 {
			m.writeFrame(id, frameReset, codec.AppendString(nil, "bad open frame")) //nolint:errcheck // best-effort refusal
			return
		}
		opening := append([]byte(nil), r.Take(r.Len())...)
		m.mu.Lock()
		if m.err != nil || m.streams[id] != nil {
			m.mu.Unlock()
			return
		}
		st := newStream(m, id, DefaultWindow)
		st.sendCredit = window // the opener granted us this many data frames
		m.streams[id] = st
		m.mu.Unlock()
		// Grant the opener our receive window, so both directions start
		// with credit (the open frame only carries the opener's window).
		m.writeFrame(id, frameCredit, codec.AppendUvarint(nil, DefaultWindow)) //nolint:errcheck // conn failure surfaces to every stream
		go m.handler(st, opening)

	case frameData:
		st := m.lookup(id)
		if st == nil {
			// Stream already closed locally; tell the peer to stop sending.
			m.writeFrame(id, frameReset, codec.AppendString(nil, "unknown stream")) //nolint:errcheck // best-effort
			return
		}
		data := append([]byte(nil), r.Take(r.Len())...)
		select {
		case st.recvq <- data:
		default:
			// The peer overran the credits we granted: protocol violation.
			st.protocolReset("flow control violated")
		}

	case frameCredit:
		st := m.lookup(id)
		if st == nil {
			return
		}
		n := int(r.Uvarint())
		if r.Err() != nil || n <= 0 {
			return
		}
		st.grantSend(n)

	case frameClose:
		st := m.lookup(id)
		if st == nil {
			return
		}
		st.closeRecv()

	case frameReset:
		st := m.lookup(id)
		if st == nil {
			return
		}
		reason := r.String()
		m.unregister(id)
		st.terminate(&StreamResetError{Reason: reason})

	default:
		// Unknown kinds are ignored for forward compatibility.
	}
}

// Stream is one logical bidirectional byte-payload stream within a Mux.
// Recv and Send are each single-goroutine; the two directions are
// independent.
type Stream struct {
	m  *Mux
	id uint64

	recvq    chan []byte   // delivered data frames, bounded by the granted window
	recvDone chan struct{} // peer sent close: EOF after recvq drains
	term     chan struct{} // reset or mux failure: stream is dead

	mu         sync.Mutex
	sendCredit int
	creditc    chan struct{} // signaled (cap 1) when credit arrives
	termErr    error
	recvClosed bool // recvDone closed
	terminated bool // term closed
	sentClose  bool
}

func newStream(m *Mux, id uint64, window int) *Stream {
	return &Stream{
		m:        m,
		id:       id,
		recvq:    make(chan []byte, window),
		recvDone: make(chan struct{}),
		term:     make(chan struct{}),
		creditc:  make(chan struct{}, 1),
	}
}

// terminate kills the stream in both directions with err.
func (s *Stream) terminate(err error) {
	s.mu.Lock()
	if s.terminated {
		s.mu.Unlock()
		return
	}
	s.terminated = true
	s.termErr = err
	close(s.term)
	s.mu.Unlock()
}

func (s *Stream) closeRecv() {
	s.mu.Lock()
	if !s.recvClosed {
		s.recvClosed = true
		close(s.recvDone)
	}
	s.mu.Unlock()
}

func (s *Stream) grantSend(n int) {
	s.mu.Lock()
	s.sendCredit += n
	s.mu.Unlock()
	select {
	case s.creditc <- struct{}{}:
	default:
	}
}

// protocolReset aborts the stream from the receive path (flow-control
// violation): peer is told, local users see a reset error.
func (s *Stream) protocolReset(reason string) {
	s.m.unregister(s.id)
	s.m.writeFrame(s.id, frameReset, codec.AppendString(nil, reason)) //nolint:errcheck // best-effort
	s.terminate(&StreamResetError{Reason: reason})
}

// errNow returns the terminal error if the stream is dead.
func (s *Stream) errNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.termErr
}

// Send delivers one data frame to the peer, blocking until a flow-control
// credit is available, the context ends, or the stream dies.
func (s *Stream) Send(ctx context.Context, payload []byte) error {
	for {
		s.mu.Lock()
		if s.termErr != nil {
			err := s.termErr
			s.mu.Unlock()
			return err
		}
		if s.sendCredit > 0 {
			s.sendCredit--
			s.mu.Unlock()
			err := s.m.writeFrame(s.id, frameData, payload)
			if errors.Is(err, ErrFrameTooLarge) {
				// Local validation failure: nothing left the socket, so the
				// credit is still ours.
				s.grantSend(1)
			}
			return err
		}
		s.mu.Unlock()
		if mm := s.m.met.Load(); mm != nil {
			mm.CreditStalls.Inc()
		}
		select {
		case <-s.creditc:
		case <-s.term:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Grant gives the peer n more data-frame credits. Callers grant as they
// consume received frames, keeping the pipeline full without unbounded
// buffering.
func (s *Stream) Grant(n int) {
	if n <= 0 {
		return
	}
	select {
	case <-s.term:
		return
	default:
	}
	s.m.writeFrame(s.id, frameCredit, codec.AppendUvarint(nil, uint64(n))) //nolint:errcheck // peer gone: Send will surface it
}

// Recv returns the next data frame. Frames queued before the peer's Close
// are always delivered; after them Recv returns io.EOF. A reset (either
// side) or mux failure surfaces as its error as soon as the already
// delivered frames, if any, are consumed.
func (s *Stream) Recv(ctx context.Context) ([]byte, error) {
	select {
	case p := <-s.recvq:
		return p, nil
	default:
	}
	select {
	case p := <-s.recvq:
		return p, nil
	case <-s.term:
		// Termination and a data frame queued just before it can both be
		// ready; deliver what was already received before reporting.
		select {
		case p := <-s.recvq:
			return p, nil
		default:
			return nil, s.errNow()
		}
	case <-s.recvDone:
		// Close and a late data frame can race in the select; prefer data.
		select {
		case p := <-s.recvq:
			return p, nil
		default:
			return nil, io.EOF
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// CloseSend signals the end of this side's data (the peer's Recv returns
// io.EOF after draining). The receive direction stays open.
func (s *Stream) CloseSend() error {
	s.mu.Lock()
	if s.sentClose || s.terminated {
		s.mu.Unlock()
		return nil
	}
	s.sentClose = true
	s.mu.Unlock()
	return s.m.writeFrame(s.id, frameClose, nil)
}

// Reset aborts the stream in both directions, telling the peer why.
// The service layer maps a canceled query context to Reset.
func (s *Stream) Reset(reason string) {
	s.mu.Lock()
	if s.terminated {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.m.unregister(s.id)
	s.m.writeFrame(s.id, frameReset, codec.AppendString(nil, reason)) //nolint:errcheck // best-effort
	s.terminate(&StreamResetError{Reason: reason})
}

// Close releases the stream. A stream that already ended cleanly (or was
// reset) just unregisters; a live stream is reset so the peer stops
// streaming into the void.
func (s *Stream) Close() error {
	s.mu.Lock()
	dead := s.terminated
	clean := s.recvClosed && s.sentClose
	s.mu.Unlock()
	if dead {
		s.m.unregister(s.id)
		return nil
	}
	if clean {
		s.m.unregister(s.id)
		s.terminate(&StreamResetError{Reason: "closed"})
		return nil
	}
	s.Reset("closed")
	return nil
}
