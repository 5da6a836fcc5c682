package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// muxPair builds a connected client/server mux over a real TCP loopback
// socket, routing accepted streams to handler.
func muxPair(t *testing.T, handler func(*Stream, []byte)) (*Mux, *Mux) {
	t.Helper()
	return muxPairOn(t, nil, nil, handler)
}

// muxPairOn is muxPair with each end's socket passed through wrap first
// (nil: used as is), so a test can count, stall or fail that end's writes.
func muxPairOn(t *testing.T, wrapClient, wrapServer func(net.Conn) net.Conn, handler func(*Stream, []byte)) (*Mux, *Mux) {
	t.Helper()
	cc, sc := tcpPair(t)
	if wrapClient != nil {
		cc = wrapClient(cc)
	}
	if wrapServer != nil {
		sc = wrapServer(sc)
	}
	client := NewClientMux(cc)
	server := NewServerMux(sc, handler)
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := ln.Accept()
		ch <- result{c, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	ln.Close()
	if a.err != nil {
		t.Fatal(a.err)
	}
	return cc, a.conn
}

func TestMuxEcho(t *testing.T) {
	client, _ := muxPair(t, func(st *Stream, opening []byte) {
		// Echo the opening payload, then every data frame, then close.
		ctx := context.Background()
		if err := st.Send(ctx, opening); err != nil {
			t.Errorf("send opening: %v", err)
			return
		}
		for {
			p, err := st.Recv(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			if err := st.Send(ctx, p); err != nil {
				t.Errorf("server send: %v", err)
				return
			}
			st.Grant(1)
		}
		st.CloseSend()
	})

	ctx := context.Background()
	st, err := client.Open([]byte("hello"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if p, err := st.Recv(ctx); err != nil || string(p) != "hello" {
		t.Fatalf("opening echo = %q, %v", p, err)
	}
	st.Grant(1)
	for i := 0; i < 5; i++ {
		msg := fmt.Sprintf("frame-%d", i)
		if err := st.Send(ctx, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		p, err := st.Recv(ctx)
		if err != nil || string(p) != msg {
			t.Fatalf("echo %d = %q, %v", i, p, err)
		}
		st.Grant(1)
	}
	st.CloseSend()
	if _, err := st.Recv(ctx); err != io.EOF {
		t.Fatalf("after CloseSend, Recv = %v, want io.EOF", err)
	}
}

func TestMuxConcurrentStreams(t *testing.T) {
	// Many streams interleave on one connection without crosstalk.
	client, _ := muxPair(t, func(st *Stream, opening []byte) {
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			if err := st.Send(ctx, append(opening, byte('0'+i%10))); err != nil {
				return
			}
		}
		st.CloseSend()
	})
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tag := fmt.Sprintf("s%d-", s)
			st, err := client.Open([]byte(tag), 4)
			if err != nil {
				t.Errorf("open %d: %v", s, err)
				return
			}
			defer st.Close()
			ctx := context.Background()
			for i := 0; ; i++ {
				p, err := st.Recv(ctx)
				if err == io.EOF {
					if i != 20 {
						t.Errorf("stream %d: %d frames, want 20", s, i)
					}
					return
				}
				if err != nil {
					t.Errorf("stream %d recv: %v", s, err)
					return
				}
				want := fmt.Sprintf("%s%d", tag, i%10)
				if string(p) != want {
					t.Errorf("stream %d frame %d = %q, want %q", s, i, p, want)
					return
				}
				st.Grant(1)
			}
		}(s)
	}
	wg.Wait()
}

func TestMuxCreditBackpressure(t *testing.T) {
	// With a window of 2 and no grants, the server's third Send must block
	// until the client grants more credit.
	sent := make(chan int, 64)
	client, _ := muxPair(t, func(st *Stream, _ []byte) {
		ctx := context.Background()
		for i := 0; i < 4; i++ {
			if err := st.Send(ctx, []byte{byte(i)}); err != nil {
				return
			}
			sent <- i
		}
		st.CloseSend()
	})
	st, err := client.Open(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The first two frames flow immediately; the third must not.
	deadline := time.After(2 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-sent:
		case <-deadline:
			t.Fatal("first frames did not flow")
		}
	}
	select {
	case i := <-sent:
		t.Fatalf("frame %d sent beyond the window without credit", i)
	case <-time.After(100 * time.Millisecond):
	}

	// Consuming and granting unblocks the sender.
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		p, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if p[0] != byte(i) {
			t.Fatalf("frame %d = %v", i, p)
		}
		st.Grant(1)
	}
	if _, err := st.Recv(ctx); err != io.EOF {
		t.Fatalf("final Recv = %v, want io.EOF", err)
	}
}

func TestMuxResetReachesPeer(t *testing.T) {
	serverErr := make(chan error, 1)
	client, _ := muxPair(t, func(st *Stream, _ []byte) {
		ctx := context.Background()
		for {
			if err := st.Send(ctx, []byte("spam")); err != nil {
				serverErr <- err
				return
			}
		}
	})
	st, err := client.Open(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Reset("client gave up")
	select {
	case err := <-serverErr:
		var reset *StreamResetError
		if !errors.As(err, &reset) {
			t.Fatalf("server error = %v, want StreamResetError", err)
		}
		if reset.Reason != "client gave up" {
			t.Errorf("reset reason = %q", reset.Reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server Send never observed the reset")
	}
	// The local side observes the reset too.
	if _, err := st.Recv(context.Background()); err == nil {
		t.Error("Recv on reset stream succeeded")
	}
}

func TestMuxSendCtxCancel(t *testing.T) {
	// A Send starved of credit honors context cancellation.
	release := make(chan struct{})
	client, _ := muxPair(t, func(st *Stream, _ []byte) {
		<-release
	})
	st, err := client.Open(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	defer st.Close()
	// The acceptor grants DefaultWindow credits up front and then never
	// consumes; the first Send past the window must block, then honor the
	// context deadline.
	cctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var sendErr error
	for i := 0; i <= DefaultWindow; i++ {
		if sendErr = st.Send(cctx, []byte("fill")); sendErr != nil {
			break
		}
	}
	if !errors.Is(sendErr, context.DeadlineExceeded) {
		t.Fatalf("starved Send = %v, want DeadlineExceeded", sendErr)
	}
}

func TestMuxConnFailureFailsStreams(t *testing.T) {
	client, server := muxPair(t, func(st *Stream, _ []byte) {
		<-st.term
	})
	st, err := client.Open(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := st.Recv(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv over dead conn = %v, want mux failure", err)
	}
	select {
	case <-client.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client mux never observed the dead connection")
	}
}
