package dht

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// LatencyModel produces a one-way link delay for each message. Package
// simnet supplies the models (Constant, Uniform, WideArea).
type LatencyModel interface {
	Delay(rng *rand.Rand) time.Duration
}

// KindStats are per-RPC-kind traffic counters.
type KindStats struct {
	Messages uint64
	Bytes    uint64
}

// TrafficStats aggregates transport-level counters, mirroring the simnet
// accounting so experiments can report DHT bandwidth per operation kind.
type TrafficStats struct {
	Messages uint64
	Bytes    uint64
	ByKind   map[string]KindStats
}

// Sub returns s - prev for interval measurement.
func (s TrafficStats) Sub(prev TrafficStats) TrafficStats {
	out := TrafficStats{
		Messages: s.Messages - prev.Messages,
		Bytes:    s.Bytes - prev.Bytes,
		ByKind:   make(map[string]KindStats, len(s.ByKind)),
	}
	for k, v := range s.ByKind {
		p := prev.ByKind[k]
		out.ByKind[k] = KindStats{Messages: v.Messages - p.Messages, Bytes: v.Bytes - p.Bytes}
	}
	return out
}

// LocalNetwork is an in-process Transport: RPCs are direct method calls on
// the destination node, with wire-size accounting, optional failure
// injection and optional wall-clock link latency (SetLatency). It is safe
// for concurrent use.
type LocalNetwork struct {
	mu       sync.Mutex
	nodes    map[string]*Node
	stats    TrafficStats
	failProb float64
	latency  LatencyModel // nil: synchronous delivery
	rng      *rand.Rand
}

// NewLocalNetwork creates an empty local transport. seed drives failure
// injection and latency sampling.
func NewLocalNetwork(seed int64) *LocalNetwork {
	return &LocalNetwork{
		nodes: make(map[string]*Node),
		stats: TrafficStats{ByKind: make(map[string]KindStats)},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Join registers n so other nodes can reach it.
func (ln *LocalNetwork) Join(n *Node) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.nodes[n.Info().Addr] = n
}

// Remove detaches the node at addr, modelling an abrupt departure.
func (ln *LocalNetwork) Remove(addr string) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	delete(ln.nodes, addr)
}

// Stats returns a copy of the traffic counters.
func (ln *LocalNetwork) Stats() TrafficStats {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	out := ln.stats
	out.ByKind = make(map[string]KindStats, len(ln.stats.ByKind))
	for k, v := range ln.stats.ByKind {
		out.ByKind[k] = v
	}
	return out
}

// SetLatency makes every later call block its goroutine for a delay drawn
// from m on the request leg and another on the response leg, so
// overlapped calls overlap their latency and sequential calls pay it
// serially, as over a wide-area network: the substrate for measuring what
// the concurrent query/publish pipeline buys. nil restores synchronous
// delivery.
//
//lint:allow unusedexport the wall-clock cluster tests of dht, plan, store and the root package set link latency with it
func (ln *LocalNetwork) SetLatency(m LatencyModel) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.latency = m
}

// CallContext implements Transport. A canceled or expired context fails
// the RPC at the call boundary, before the destination handler runs.
// Cancellation during a nonzero latency leg abandons the RPC at once: the
// request or response is lost in flight, and the handler does not run
// after a request-leg cancel. A zero leg neither sleeps nor consults ctx,
// so a synchronous call whose handler ran returns its response.
//
// The sender pays for what it sends: every call, including one to an
// unreachable or failed destination, is charged two messages and the
// request's bytes; the response's bytes are charged when it arrives.
func (ln *LocalNetwork) CallContext(ctx context.Context, to NodeInfo, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dht: call %s: %w", to.Addr, err)
	}
	kind := req.Kind.String()
	reqBytes := uint64(req.WireSize())
	ln.mu.Lock()
	node, ok := ln.nodes[to.Addr]
	failed := ok && ln.failProb > 0 && ln.rng.Float64() < ln.failProb
	var there, back time.Duration
	if ln.latency != nil {
		there, back = ln.latency.Delay(ln.rng), ln.latency.Delay(ln.rng)
	}
	ln.stats.Messages += 2
	ln.stats.Bytes += reqBytes
	ks := ln.stats.ByKind[kind]
	ks.Messages += 2
	ks.Bytes += reqBytes
	ln.stats.ByKind[kind] = ks
	ln.mu.Unlock()

	if !ok {
		return nil, fmt.Errorf("dht: node %s unreachable", to.Addr)
	}
	if failed {
		return nil, fmt.Errorf("dht: call to %s dropped (failure injection)", to.Addr)
	}
	if err := sleepLeg(ctx, there); err != nil {
		return nil, fmt.Errorf("dht: call %s: %w", to.Addr, err)
	}
	resp := node.HandleRPC(req)
	if err := sleepLeg(ctx, back); err != nil {
		return nil, fmt.Errorf("dht: call %s: %w", to.Addr, err)
	}
	respBytes := uint64(resp.WireSize())
	ln.mu.Lock()
	ln.stats.Bytes += respBytes
	ks = ln.stats.ByKind[kind]
	ks.Bytes += respBytes
	ln.stats.ByKind[kind] = ks
	ln.mu.Unlock()
	return resp, nil
}

// sleepLeg sleeps one latency leg of d, returning ctx.Err() if ctx is done
// first. A zero leg returns nil at once.
func sleepLeg(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
