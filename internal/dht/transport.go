package dht

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
)

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
// the destination node, with wire-size accounting and optional failure
// injection. It is safe for concurrent use.
type LocalNetwork struct {
	mu       sync.Mutex
	nodes    map[string]*Node
	stats    TrafficStats
	failProb float64
	rng      *rand.Rand
}

// NewLocalNetwork creates an empty local transport. seed drives failure
// injection.
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

// CallContext implements Transport. Delivery is synchronous, so the
// context is consulted at the call boundary: a canceled or expired context
// fails the RPC before the destination handler runs.
func (ln *LocalNetwork) CallContext(ctx context.Context, to NodeInfo, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dht: call %s: %w", to.Addr, err)
	}
	kind := req.Kind.String()
	reqBytes := uint64(req.WireSize())
	ln.mu.Lock()
	node, ok := ln.nodes[to.Addr]
	failed := ok && ln.failProb > 0 && ln.rng.Float64() < ln.failProb
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
	resp := node.HandleRPC(req)
	respBytes := uint64(resp.WireSize())
	ln.mu.Lock()
	ln.stats.Bytes += respBytes
	ks = ln.stats.ByKind[kind]
	ks.Bytes += respBytes
	ln.stats.ByKind[kind] = ks
	ln.mu.Unlock()
	return resp, nil
}
