// Package dhttest provides a reusable conformance suite for
// dht.Transport implementations. Every in-process transport — LocalNetwork
// both synchronous and with wall-clock link latency, and the virtual-time
// simnet.Net — must agree on the same observable contract:
// responses match their requests, sequential calls arrive in order,
// unreachable and detached nodes fail cleanly, canceled contexts abort
// before the handler runs, concurrent callers do not corrupt each other
// (the suite is expected to run under -race), and a lookup reply carries
// only the contacts its request asked for.
//
// A transport plugs in by filling a Harness; the suite drives everything
// else through it. The Run hook exists for transports whose callers must
// be scheduler tasks rather than plain goroutines (virtual time): the
// suite never spawns a goroutine itself, it always hands work to Run.
package dhttest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"piersearch/internal/dht"
)

// Harness adapts one transport implementation to the conformance suite.
// All fields are required.
type Harness struct {
	// Transport is the implementation under test.
	Transport dht.Transport

	// NewNode creates a fresh node, registers it on the transport, and
	// arranges its cleanup. Each call must yield a distinct address.
	NewNode func() *dht.Node

	// Detach makes the node at addr unreachable, modelling an abrupt
	// departure or a closed endpoint. Subsequent calls to it must fail.
	Detach func(addr string)

	// Run executes the given functions to completion, concurrently where
	// the transport allows blocking callers. Wall-clock harnesses run
	// them on goroutines and wait; virtual-time harnesses run them as
	// scheduler tasks under the clock.
	Run func(fns ...func())
}

// RunConformance runs the full suite. mk is invoked once per subtest so
// every case starts from a fresh transport.
func RunConformance(t *testing.T, mk func(t *testing.T) *Harness) {
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, mk(t)) })
	t.Run("SequentialOrdering", func(t *testing.T) { testSequentialOrdering(t, mk(t)) })
	t.Run("UnreachableAddr", func(t *testing.T) { testUnreachableAddr(t, mk(t)) })
	t.Run("DetachedNodeFails", func(t *testing.T) { testDetachedNodeFails(t, mk(t)) })
	t.Run("CanceledContext", func(t *testing.T) { testCanceledContext(t, mk(t)) })
	t.Run("ConcurrentCallers", func(t *testing.T) { testConcurrentCallers(t, mk(t)) })
	t.Run("Join", func(t *testing.T) { testJoin(t, mk(t)) })
	t.Run("IterativeLookup", func(t *testing.T) { testIterativeLookup(t, mk(t)) })
	t.Run("EvictionOnFailure", func(t *testing.T) { testEvictionOnFailure(t, mk(t)) })
	t.Run("DetachedPeerDuringLookup", func(t *testing.T) { testDetachedPeerDuringLookup(t, mk(t)) })
	t.Run("NarrowReply", func(t *testing.T) { testNarrowReply(t, mk(t)) })
}

func appReq(from *dht.Node, app string, data []byte) *dht.Request {
	return &dht.Request{Kind: dht.RPCApp, From: from.Info(), App: app, Data: data}
}

func testRoundTrip(t *testing.T, h *Harness) {
	a, b := h.NewNode(), h.NewNode()
	b.RegisterApp("echo", func(_ dht.NodeInfo, data []byte) []byte {
		return append([]byte("re:"), data...)
	})
	var resp *dht.Response
	var err error
	h.Run(func() {
		resp, err = h.Transport.CallContext(context.Background(), b.Info(), appReq(a, "echo", []byte("ping")))
	})
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !resp.OK || string(resp.Data) != "re:ping" {
		t.Fatalf("resp = %+v, want OK echo of %q", resp, "ping")
	}
	if resp.From.ID != b.Info().ID {
		t.Fatalf("response From = %v, want the callee %v", resp.From.ID, b.Info().ID)
	}
}

func testSequentialOrdering(t *testing.T, h *Harness) {
	a, b := h.NewNode(), h.NewNode()
	var mu sync.Mutex
	var got []byte
	b.RegisterApp("seq", func(_ dht.NodeInfo, data []byte) []byte {
		mu.Lock()
		got = append(got, data[0])
		mu.Unlock()
		return data
	})
	const n = 20
	h.Run(func() {
		for i := 0; i < n; i++ {
			resp, err := h.Transport.CallContext(context.Background(), b.Info(), appReq(a, "seq", []byte{byte(i)}))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if len(resp.Data) != 1 || resp.Data[0] != byte(i) {
				t.Errorf("call %d: response %v echoes the wrong request", i, resp.Data)
				return
			}
		}
	})
	if len(got) != n {
		t.Fatalf("handler saw %d calls, want %d", len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("sequential calls delivered out of order: position %d holds %d", i, v)
		}
	}
}

func testUnreachableAddr(t *testing.T, h *Harness) {
	a := h.NewNode()
	ghost := dht.NodeInfo{ID: dht.NamespacedID("dhttest", "ghost"), Addr: "dhttest-ghost"}
	h.Run(func() {
		if _, err := h.Transport.CallContext(context.Background(), ghost, appReq(a, "echo", nil)); err == nil {
			t.Error("call to an address that never joined succeeded")
		}
	})
}

func testDetachedNodeFails(t *testing.T, h *Harness) {
	a, b := h.NewNode(), h.NewNode()
	b.RegisterApp("echo", func(_ dht.NodeInfo, data []byte) []byte { return data })
	h.Run(func() {
		if _, err := h.Transport.CallContext(context.Background(), b.Info(), appReq(a, "echo", nil)); err != nil {
			t.Errorf("call before detach: %v", err)
		}
	})
	h.Detach(b.Info().Addr)
	h.Run(func() {
		if _, err := h.Transport.CallContext(context.Background(), b.Info(), appReq(a, "echo", nil)); err == nil {
			t.Error("call to a detached node succeeded")
		}
	})
}

func testCanceledContext(t *testing.T, h *Harness) {
	a, b := h.NewNode(), h.NewNode()
	var mu sync.Mutex
	handled := 0
	b.RegisterApp("echo", func(_ dht.NodeInfo, data []byte) []byte {
		mu.Lock()
		handled++
		mu.Unlock()
		return data
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.Run(func() {
		_, err := h.Transport.CallContext(ctx, b.Info(), appReq(a, "echo", []byte("x")))
		if err == nil {
			t.Error("call with canceled context succeeded")
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if handled != 0 {
		t.Errorf("handler ran %d times despite a pre-canceled context", handled)
	}
}

func testConcurrentCallers(t *testing.T, h *Harness) {
	const callers, calls = 8, 25
	server := h.NewNode()
	var mu sync.Mutex
	total := 0
	server.RegisterApp("echo", func(_ dht.NodeInfo, data []byte) []byte {
		mu.Lock()
		total++
		mu.Unlock()
		return data
	})
	fns := make([]func(), callers)
	for c := 0; c < callers; c++ {
		caller := h.NewNode()
		c := c
		fns[c] = func() {
			for i := 0; i < calls; i++ {
				payload := []byte(fmt.Sprintf("%d:%d", c, i))
				resp, err := h.Transport.CallContext(context.Background(), server.Info(), appReq(caller, "echo", payload))
				if err != nil {
					t.Errorf("caller %d call %d: %v", c, i, err)
					return
				}
				if string(resp.Data) != string(payload) {
					t.Errorf("caller %d call %d: got %q, want %q (responses crossed)", c, i, resp.Data, payload)
					return
				}
			}
		}
	}
	h.Run(fns...)
	mu.Lock()
	defer mu.Unlock()
	if total != callers*calls {
		t.Fatalf("handler saw %d calls, want %d", total, callers*calls)
	}
}

// buildNetwork joins count-1 nodes through the first and returns all of
// them. Joins run inside h.Run because they issue RPCs.
func buildNetwork(t *testing.T, h *Harness, count int) []*dht.Node {
	t.Helper()
	nodes := make([]*dht.Node, count)
	for i := range nodes {
		nodes[i] = h.NewNode()
	}
	seed := nodes[0].Info()
	h.Run(func() {
		for _, n := range nodes[1:] {
			if err := n.JoinNetwork([]dht.NodeInfo{seed}); err != nil {
				t.Errorf("join %s: %v", n.Info().ID.Short(), err)
				return
			}
		}
	})
	return nodes
}

// testJoin checks the join protocol over the transport: seeds are given by
// address alone (the ping reply supplies the ID), concurrent joiners all
// succeed, and afterwards both sides know each other — joiners via the
// self-lookup, the seed by observing the inbound RPCs.
func testJoin(t *testing.T, h *Harness) {
	seed := h.NewNode()
	joiners := make([]*dht.Node, 4)
	fns := make([]func(), len(joiners))
	for i := range joiners {
		joiners[i] = h.NewNode()
		n := joiners[i]
		fns[i] = func() {
			if err := n.JoinNetwork([]dht.NodeInfo{{Addr: seed.Info().Addr}}); err != nil {
				t.Errorf("join: %v", err)
			}
		}
	}
	h.Run(fns...)
	for _, n := range joiners {
		if n.TableLen() == 0 {
			t.Errorf("joiner %s has an empty routing table after join", n.Info().ID.Short())
		}
	}
	if got := seed.TableLen(); got < len(joiners) {
		t.Errorf("seed knows %d contacts, want at least %d (one per joiner)", got, len(joiners))
	}
}

// testIterativeLookup checks that an iterative FindNode for a live node's
// own ID converges on that node: it is at XOR distance zero from the
// target, so a correct lookup must rank it first.
func testIterativeLookup(t *testing.T, h *Harness) {
	nodes := buildNetwork(t, h, 10)
	origin, target := nodes[1], nodes[len(nodes)-1].Info()
	var got []dht.NodeInfo
	var stats dht.LookupStats
	var err error
	h.Run(func() {
		got, stats, err = origin.LookupContext(context.Background(), target.ID)
	})
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("lookup returned no contacts")
	}
	if got[0].ID != target.ID {
		t.Fatalf("lookup of %s ranked %s first; the target itself is distance zero",
			target.ID.Short(), got[0].ID.Short())
	}
	if stats.Hops < 1 || stats.Messages < 1 {
		t.Fatalf("lookup stats %+v claim no work was done", stats)
	}
}

// testEvictionOnFailure checks Kademlia's liveness rule end to end: a
// contact that stops answering is evicted from the routing table when an
// RPC to it fails.
func testEvictionOnFailure(t *testing.T, h *Harness) {
	a, b := h.NewNode(), h.NewNode()
	if !a.SeedContact(b.Info()) {
		t.Fatal("seeding b into a's table failed")
	}
	h.Detach(b.Info().Addr)
	h.Run(func() {
		// The lookup probes b, the only contact; the failed RPC must evict it.
		a.LookupContext(context.Background(), b.Info().ID) //nolint:errcheck // probing a dead peer may error
	})
	if got := a.TableLen(); got != 0 {
		t.Fatalf("table still holds %d contacts after its only peer died", got)
	}
	if ev := a.RoutingStats().Table.Counters.Evictions; ev == 0 {
		t.Fatal("eviction counter did not move")
	}
}

// testDetachedPeerDuringLookup checks that a lookup routes around peers
// that departed abruptly: it still converges on the live target and the
// dead peers are absent from the result.
func testDetachedPeerDuringLookup(t *testing.T, h *Harness) {
	nodes := buildNetwork(t, h, 8)
	dead := map[dht.ID]bool{}
	for _, n := range nodes[2:4] {
		h.Detach(n.Info().Addr)
		dead[n.Info().ID] = true
	}
	origin, target := nodes[1], nodes[len(nodes)-1].Info()
	var got []dht.NodeInfo
	var err error
	h.Run(func() {
		got, _, err = origin.LookupContext(context.Background(), target.ID)
	})
	if err != nil {
		t.Fatalf("lookup with detached peers: %v", err)
	}
	if len(got) == 0 || got[0].ID != target.ID {
		t.Fatalf("lookup did not converge on the live target; got %d contacts", len(got))
	}
	for _, c := range got {
		if dead[c.ID] {
			t.Errorf("detached peer %s appears in the lookup result", c.ID.Short())
		}
	}
}

// testNarrowReply checks that a reply carries only the contacts its caller
// reads, across the transport: a FindNode asking for Want contacts gets
// min(Want, K, table size) of them, nearest first, and a FindValue that
// reaches a holder gets the values with at most Replicate contacts.
func testNarrowReply(t *testing.T, h *Harness) {
	nodes := buildNetwork(t, h, 10)
	// The join seed has observed every joiner, so its table is the largest.
	responder, caller := nodes[0], nodes[1]
	cfg := responder.Config()
	target := dht.NamespacedID("dhttest", "narrow")
	call := func(req *dht.Request) *dht.Response {
		t.Helper()
		req.From = caller.Info()
		var resp *dht.Response
		var err error
		h.Run(func() {
			resp, err = h.Transport.CallContext(context.Background(), responder.Info(), req)
		})
		if err != nil {
			t.Fatalf("%s want=%d: %v", req.Kind, req.Want, err)
		}
		return resp
	}
	for _, want := range []int{1, 3, 6, cfg.K + 5, 0} {
		resp := call(&dht.Request{Kind: dht.RPCFindNode, Target: target, Want: want})
		limit := want
		if limit == 0 || limit > cfg.K {
			limit = cfg.K
		}
		wantLen := min(limit, responder.TableLen())
		if len(resp.Closest) != wantLen {
			t.Errorf("FindNode want=%d: %d contacts, want %d (table holds %d)",
				want, len(resp.Closest), wantLen, responder.TableLen())
		}
		for i := 1; i < len(resp.Closest); i++ {
			if dht.Closer(resp.Closest[i].ID, resp.Closest[i-1].ID, target) {
				t.Errorf("FindNode want=%d: contacts not nearest first at %d", want, i)
			}
		}
	}

	if resp := call(&dht.Request{Kind: dht.RPCFindValue, Target: target}); len(resp.Values) != 0 ||
		len(resp.Closest) != min(cfg.K, responder.TableLen()) {
		t.Errorf("FindValue at a non-holder: %d values, %d contacts; want 0 values, %d contacts",
			len(resp.Values), len(resp.Closest), min(cfg.K, responder.TableLen()))
	}
	responder.LocalPut(target, []byte("held"))
	resp := call(&dht.Request{Kind: dht.RPCFindValue, Target: target})
	if len(resp.Values) != 1 || string(resp.Values[0].Data) != "held" {
		t.Fatalf("FindValue at the holder returned values %v, want the one it holds", resp.Values)
	}
	if len(resp.Closest) > cfg.Replicate {
		t.Errorf("FindValue at the holder attached %d contacts, want at most Replicate = %d",
			len(resp.Closest), cfg.Replicate)
	}
}
