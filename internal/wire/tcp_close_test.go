package wire

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"piersearch/internal/dht"
)

// fakeRPCServer is a raw frame-speaking peer: it answers every request
// with an OK response and reports when its accepted connections die, so
// tests can observe whether the transport really closed what it pooled.
type fakeRPCServer struct {
	ln       net.Listener
	accepted atomic.Int64
	closed   atomic.Int64
	stall    chan struct{} // non-nil: hold every response until closed
}

func newFakeRPCServer(t *testing.T, stall chan struct{}) *fakeRPCServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeRPCServer{ln: ln, stall: stall}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			go func() {
				defer func() {
					conn.Close()
					s.closed.Add(1)
				}()
				for {
					payload, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if _, err := DecodeRequest(payload); err != nil {
						return
					}
					if s.stall != nil {
						<-s.stall
					}
					resp := &dht.Response{From: dht.NodeInfo{ID: dht.StringID("srv"), Addr: ln.Addr().String()}, OK: true}
					if err := WriteFrame(conn, EncodeResponse(resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *fakeRPCServer) info() dht.NodeInfo {
	return dht.NodeInfo{ID: dht.StringID("srv"), Addr: s.ln.Addr().String()}
}

func pingReq() *dht.Request {
	return &dht.Request{Kind: dht.RPCPing, From: dht.NodeInfo{ID: dht.StringID("cli"), Addr: "x"}}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTCPCloseReleasesPooledConns is the shutdown-leak regression test:
// Close must actually close idle pooled connections (the server sees EOF),
// not just forget them.
func TestTCPCloseReleasesPooledConns(t *testing.T) {
	srv := newFakeRPCServer(t, nil)
	tr := NewTCPTransport()
	for i := 0; i < 3; i++ {
		if _, err := tr.CallContext(context.Background(), srv.info(), pingReq()); err != nil {
			t.Fatal(err)
		}
	}
	if srv.accepted.Load() == 0 {
		t.Fatal("no connections accepted")
	}
	if srv.closed.Load() != 0 {
		t.Fatalf("connections closed before transport Close: %d", srv.closed.Load())
	}
	tr.Close()
	waitFor(t, "pooled conns to close", func() bool {
		return srv.closed.Load() == srv.accepted.Load()
	})
}

// TestTCPCallAfterCloseFails pins that a closed transport refuses new
// calls instead of dialing fresh connections into a leak.
func TestTCPCallAfterCloseFails(t *testing.T) {
	srv := newFakeRPCServer(t, nil)
	tr := NewTCPTransport()
	if _, err := tr.CallContext(context.Background(), srv.info(), pingReq()); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	_, err := tr.CallContext(context.Background(), srv.info(), pingReq())
	if err == nil {
		t.Fatal("Call succeeded on closed transport")
	}
	if !strings.Contains(err.Error(), "closed") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Unknown hosts must be refused too (no new pool created post-Close).
	if _, err := tr.CallContext(context.Background(), dht.NodeInfo{ID: dht.StringID("other"), Addr: "127.0.0.1:1"}, pingReq()); err == nil {
		t.Fatal("Call to new host succeeded on closed transport")
	}
}

// TestTCPCloseDuringInFlightCall checks that a connection carrying an RPC
// when Close fires is closed once the call finishes instead of being
// re-pooled and leaked.
func TestTCPCloseDuringInFlightCall(t *testing.T) {
	stall := make(chan struct{})
	srv := newFakeRPCServer(t, stall)
	tr := NewTCPTransport()
	done := make(chan error, 1)
	go func() {
		_, err := tr.CallContext(context.Background(), srv.info(), pingReq())
		done <- err
	}()
	waitFor(t, "in-flight call to reach the server", func() bool { return srv.accepted.Load() == 1 })
	tr.Close()
	close(stall) // let the server respond now that the transport is closed
	if err := <-done; err != nil {
		t.Fatalf("in-flight call failed: %v", err)
	}
	// hostPool.put must close (not re-pool) the conn because the pool is
	// marked closed; the server observes EOF.
	waitFor(t, "in-flight conn to close", func() bool { return srv.closed.Load() == 1 })
}

// TestTCPCloseAbortsPendingDials checks the dial path is cancelable: a
// dial in flight when Close fires returns promptly instead of waiting out
// its full timeout.
func TestTCPCloseAbortsPendingDials(t *testing.T) {
	// A listener whose accept queue we never drain and pre-fill: further
	// connects hang in SYN backlog on loopback only under load, so instead
	// point at a blackhole: a bound-but-unlistened port is unreliable
	// cross-platform, and external blackhole IPs need a network. The
	// portable observable is the context itself: Close cancels dialCtx, so
	// a Call issued after Close fails immediately even with a huge
	// DialTimeout toward an address that would otherwise take long.
	tr := NewTCPTransport()
	tr.DialTimeout = 30 * time.Second
	ctx := tr.dialContext()
	tr.Close()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Close did not cancel the dial context")
	}
	start := time.Now()
	if _, err := tr.CallContext(context.Background(), dht.NodeInfo{ID: dht.StringID("n"), Addr: "203.0.113.1:9"}, pingReq()); err == nil {
		t.Fatal("Call succeeded after Close")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Call after Close took %v", elapsed)
	}
}
