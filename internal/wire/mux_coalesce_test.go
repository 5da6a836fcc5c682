package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piersearch/internal/telemetry"
)

// These tests pin the coalescing writer: frames are queued and a flusher
// hands what has accumulated to the socket in one Write. Each either fails
// on a writer that issues one Write per frame, or guards a property
// (ordering, delivery before Close, failure fan-out, goroutine lifetime)
// that queueing could have broken.

// testConn wraps one end's socket: it counts Write calls, holds them while
// gate is set and open, and fails them once broken is set.
type testConn struct {
	net.Conn
	writes atomic.Int64
	gate   chan struct{} // non-nil: a Write waits until it is closed
	broken atomic.Bool
}

var errInjected = errors.New("injected write failure")

func (c *testConn) Write(p []byte) (int, error) {
	if c.gate != nil {
		<-c.gate
	}
	if c.broken.Load() {
		return 0, errInjected
	}
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// wrapWith returns a muxPairOn wrapper that installs tc around the socket.
func wrapWith(tc *testConn) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		tc.Conn = c
		return tc
	}
}

func recvAll(t *testing.T, st *Stream) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out [][]byte
	for {
		p, err := st.Recv(ctx)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("recv after %d frames: %v", len(out), err)
		}
		out = append(out, p)
		st.Grant(1)
	}
}

// TestMuxBackToBackFramesShareAWrite: frames a handler queues without
// waiting in between arrive in order and leave in fewer socket writes than
// there are frames. The server's first write is held until the handler has
// queued everything, so the count is exact: the held write carries what was
// queued when the flusher first ran, one more carries all the rest.
func TestMuxBackToBackFramesShareAWrite(t *testing.T) {
	const frames = 12
	sconn := &testConn{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	client, server := muxPairOn(t, nil, wrapWith(sconn), func(st *Stream, _ []byte) {
		ctx := context.Background()
		for i := 0; i < frames; i++ {
			if err := st.Send(ctx, []byte(fmt.Sprintf("frame-%02d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		st.CloseSend()
		close(sconn.gate)
	})
	mm := RegisterMuxMetrics(reg)
	server.SetMetrics(mm)

	st, err := client.Open(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := recvAll(t, st)
	if len(got) != frames {
		t.Fatalf("%d frames arrived, want %d", len(got), frames)
	}
	for i, p := range got {
		if want := fmt.Sprintf("frame-%02d", i); string(p) != want {
			t.Fatalf("frame %d = %q, want %q", i, p, want)
		}
	}
	// Queued by the server: the credit answering the open, the data
	// frames, the close.
	if out := mm.FramesOut.Value(); out != frames+2 {
		t.Errorf("frames_out = %d, want %d", out, frames+2)
	}
	if w := sconn.writes.Load(); w < 1 || w > 2 {
		t.Errorf("%d frames left in %d writes, want 1 or 2", frames+2, w)
	}
	if f, w := mm.Flushes.Value(), sconn.writes.Load(); f != w {
		t.Errorf("flushes = %d, socket writes = %d", f, w)
	}
	if f, out := mm.Flushes.Value(), mm.FramesOut.Value(); f > out {
		t.Errorf("flushes %d > frames_out %d", f, out)
	}
}

// TestMuxConcurrentStreamsNeverTear: streams sending frames of mixed sizes
// at once — small ones through the pending buffer, large ones written from
// the sender's own slice — each see their own frames whole and in order. A
// torn or reordered frame would fail the parse (killing the session) or the
// per-frame check.
func TestMuxConcurrentStreamsNeverTear(t *testing.T) {
	sizes := []int{1, 300, coalesceFrameLimit, coalesceFrameLimit + 1, 9000, 70_000}
	const perStream = 30
	payload := func(stream byte, seq int) []byte {
		p := bytes.Repeat([]byte{stream}, sizes[(seq+int(stream))%len(sizes)])
		p[0] = byte(seq)
		return p
	}
	client, _ := muxPair(t, func(st *Stream, opening []byte) {
		ctx := context.Background()
		for i := 0; i < perStream; i++ {
			if err := st.Send(ctx, payload(opening[0], i)); err != nil {
				t.Errorf("stream %c send %d: %v", opening[0], i, err)
				return
			}
		}
		st.CloseSend()
	})
	var wg sync.WaitGroup
	for s := byte('a'); s < 'a'+8; s++ {
		wg.Add(1)
		go func(s byte) {
			defer wg.Done()
			st, err := client.Open([]byte{s}, 4)
			if err != nil {
				t.Errorf("open %c: %v", s, err)
				return
			}
			defer st.Close()
			got := recvAll(t, st)
			if len(got) != perStream {
				t.Errorf("stream %c: %d frames, want %d", s, len(got), perStream)
				return
			}
			for i, p := range got {
				if !bytes.Equal(p, payload(s, i)) {
					t.Errorf("stream %c frame %d: %d bytes, head %q — torn or out of order", s, i, len(p), p[:min(len(p), 8)])
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestMuxCloseDeliversQueuedFrames: Send returning nil means queued, so
// Close — of the session or of the stream — must put what is queued on the
// socket before anything is torn down.
func TestMuxCloseDeliversQueuedFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(*Mux, *Stream)
	}{
		{"mux", func(m *Mux, _ *Stream) { m.Close() }},
		{"stream", func(_ *Mux, st *Stream) { st.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The race is between Close and a flusher that has not run
			// yet; a few rounds make a lost frame all but certain to show.
			for round := 0; round < 20; round++ {
				got := make(chan []byte, 1)
				client, _ := muxPair(t, func(st *Stream, _ []byte) {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					p, err := st.Recv(ctx)
					if err != nil {
						t.Errorf("round %d: peer never saw the frame: %v", round, err)
					}
					got <- p
				})
				st, err := client.Open(nil, 4)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Send(context.Background(), []byte("last words")); err != nil {
					t.Fatal(err)
				}
				tc.close(client, st)
				if p := <-got; string(p) != "last words" {
					t.Fatalf("round %d: peer received %q", round, p)
				}
			}
		})
	}
}

// TestMuxWriteErrorFailsSession: the write happens after Send returned, so
// its failure must surface everywhere else — every stream dies with the
// mux's error, and the next Send and Open return it.
func TestMuxWriteErrorFailsSession(t *testing.T) {
	cconn := &testConn{}
	client, _ := muxPairOn(t, wrapWith(cconn), nil, func(st *Stream, _ []byte) { <-st.term })
	a, err := client.Open(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Open(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cconn.broken.Store(true)
	a.Grant(1) // any frame: its write fails
	select {
	case <-client.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session survived a failed write")
	}
	if err := client.Err(); !errors.Is(err, errInjected) {
		t.Fatalf("mux error = %v, want the write's error", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for name, st := range map[string]*Stream{"a": a, "b": b} {
		if _, err := st.Recv(ctx); !errors.Is(err, errInjected) {
			t.Errorf("stream %s Recv = %v, want the mux error", name, err)
		}
		if err := st.Send(ctx, []byte("x")); !errors.Is(err, errInjected) {
			t.Errorf("stream %s Send = %v, want the mux error", name, err)
		}
	}
	if _, err := client.Open(nil, 4); !errors.Is(err, errInjected) {
		t.Errorf("Open on a failed session = %v, want the mux error", err)
	}
}

// TestMuxFrameTooLargeIsLocal: an unsendable payload is refused before it
// is queued — the session stays up and the credit it would have used is
// still there for the next frame.
func TestMuxFrameTooLargeIsLocal(t *testing.T) {
	huge := make([]byte, MaxFrame)
	client, _ := muxPair(t, func(st *Stream, _ []byte) {
		// The opener granted exactly one credit.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := st.Send(ctx, huge); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("oversized Send = %v, want ErrFrameTooLarge", err)
		}
		if err := st.Send(ctx, []byte("fits")); err != nil {
			t.Errorf("Send after the refusal = %v: the credit was not returned", err)
		}
		st.CloseSend()
	})
	st, err := client.Open(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := recvAll(t, st)
	if len(got) != 1 || string(got[0]) != "fits" {
		t.Fatalf("received %q, want the one frame that fits", got)
	}
	if err := client.Err(); err != nil {
		t.Fatalf("session failed: %v", err)
	}
}

// TestMuxPendingBufferIsBounded: with the socket stalled, senders queue up
// to the bound and then wait; none of it is lost once the socket moves.
func TestMuxPendingBufferIsBounded(t *testing.T) {
	const opens = 40
	opening := make([]byte, coalesceFrameLimit-16) // the largest frames that still queue
	cconn := &testConn{gate: make(chan struct{})}
	var served atomic.Int64
	client, _ := muxPairOn(t, wrapWith(cconn), nil, func(st *Stream, _ []byte) {
		served.Add(1)
		st.Close()
	})
	var queued atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < opens; i++ {
			if _, err := client.Open(opening, 1); err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			queued.Add(1)
		}
	}()
	// The flusher took the first frames into its held write; the buffer
	// behind it fills to maxPendingBytes and the sender stops.
	limit := int64(2*maxPendingBytes/len(opening) + 2)
	waitFor(t, "the pending buffer to fill", func() bool { return queued.Load() >= limit/2 })
	time.Sleep(50 * time.Millisecond)
	if n := queued.Load(); n > limit {
		t.Errorf("%d frames of %d bytes queued behind a stalled socket, bound is %d bytes", n, len(opening), maxPendingBytes)
	}
	select {
	case <-done:
		t.Fatal("sender never waited for the stalled socket")
	default:
	}
	close(cconn.gate)
	<-done
	waitFor(t, "every queued open to be served", func() bool { return served.Load() == opens })
}

// TestMuxLoopsExitWithSession: the read loop and the flusher are gone when
// Close returns, and go on their own when the peer hangs up.
func TestMuxLoopsExitWithSession(t *testing.T) {
	exchange := func(client *Mux) {
		st, err := client.Open([]byte("ping"), 4)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if p, err := st.Recv(ctx); err != nil || string(p) != "ping" {
			t.Fatalf("echo = %q, %v", p, err)
		}
		st.Close()
	}
	echo := func(st *Stream, opening []byte) {
		st.Send(context.Background(), opening) //nolint:errcheck // the client checks the echo
		<-st.term
	}
	settle := func(what string, base int) {
		t.Helper()
		waitFor(t, what+": the session's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	}

	base := runtime.NumGoroutine()
	cc, sc := tcpPair(t)
	client, server := NewClientMux(cc), NewServerMux(sc, echo)
	exchange(client)
	client.Close()
	// Close waits for its own loops: only the peer's may still be running,
	// and they end once it reads the hang-up — nobody calls server.Close.
	select {
	case <-server.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("peer never noticed the close")
	}
	settle("after Close and peer hang-up", base)

	// A socket that dies under both sessions (no Close call at all).
	cc, sc = tcpPair(t)
	client, server = NewClientMux(cc), NewServerMux(sc, echo)
	exchange(client)
	cc.Close()
	<-client.Done()
	<-server.Done()
	settle("after the socket died", base)
}

// BenchmarkMuxStreamRoundTrip is the mux's share of a remote query: open a
// stream, one frame each way, release it — over loopback TCP.
func BenchmarkMuxStreamRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	ctx := context.Background()
	accepted := make(chan *Mux, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- NewServerMux(conn, func(st *Stream, _ []byte) {
			defer st.Close()
			p, err := st.Recv(ctx)
			if err != nil {
				return
			}
			st.Grant(1)
			st.Send(ctx, p) //nolint:errcheck // the client's Recv reports it
		})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	client := NewClientMux(conn)
	defer client.Close()
	server, ok := <-accepted
	if !ok {
		b.Fatal("echo peer did not accept")
	}
	defer server.Close()
	reg := telemetry.NewRegistry()
	mm := RegisterMuxMetrics(reg)
	client.SetMetrics(mm)
	server.SetMetrics(mm)

	payload := bytes.Repeat([]byte{'x'}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := client.Open(nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Send(ctx, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Recv(ctx); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(mm.FramesOut.Value())/float64(b.N), "frames/op")
	b.ReportMetric(float64(mm.Flushes.Value())/float64(b.N), "writes/op")
}
