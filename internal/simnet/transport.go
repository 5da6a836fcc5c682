package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"piersearch/internal/dht"
)

// RealTime is a dht.Transport that delivers RPCs in-process while imposing
// real wall-clock link latency drawn from a LatencyModel. Unlike Network
// (discrete-event, single-threaded), RealTime is safe for concurrent
// callers and actually blocks the calling goroutine, so it is the
// substrate for measuring what the concurrent query/publish pipeline buys:
// overlapped calls overlap their latency, sequential calls pay it serially,
// exactly as over a real wide-area network.
type RealTime struct {
	latency LatencyModel

	mu    sync.Mutex // guards rng and nodes
	rng   *rand.Rand
	nodes map[string]*dht.Node

	messages atomic.Uint64
	bytes    atomic.Uint64
}

// NewRealTime creates a transport with the given latency model (nil means
// DefaultWideArea). seed drives latency sampling.
func NewRealTime(latency LatencyModel, seed int64) *RealTime {
	if latency == nil {
		latency = DefaultWideArea()
	}
	return &RealTime{
		latency: latency,
		rng:     rand.New(rand.NewSource(seed)),
		nodes:   make(map[string]*dht.Node),
	}
}

// SetLatency swaps the latency model, e.g. zero while seeding a cluster
// and wide-area for the measured phase. nil restores DefaultWideArea.
//
//lint:allow unusedexport the plan and root real-time tests set link latency with it
func (rt *RealTime) SetLatency(m LatencyModel) {
	if m == nil {
		m = DefaultWideArea()
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.latency = m
}

// Join registers n so other nodes can reach it.
func (rt *RealTime) Join(n *dht.Node) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nodes[n.Info().Addr] = n
}

// Remove detaches the node at addr, modelling an abrupt departure.
//
//lint:allow unusedexport the dht and store real-time tests fail nodes with it
func (rt *RealTime) Remove(addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.nodes, addr)
}

// Messages returns the total one-way messages carried (each RPC
// round-trip counts its request and its response, matching Network's
// per-message accounting).
//
//lint:allow unusedexport real-time tests count traffic with it
func (rt *RealTime) Messages() uint64 { return rt.messages.Load() }

// Bytes returns the total wire bytes carried (requests plus responses).
//
//lint:allow unusedexport real-time tests count traffic with it
func (rt *RealTime) Bytes() uint64 { return rt.bytes.Load() }

// CallContext implements dht.Transport: it sleeps a sampled one-way delay,
// hands the request to the destination node, and sleeps another sampled
// delay for the response leg. Cancellation during either latency leg
// abandons the RPC immediately, modelling a caller that stops
// waiting for a wide-area round-trip (the request or response is simply
// lost in flight; the destination handler does not run after a request-leg
// cancel).
func (rt *RealTime) CallContext(ctx context.Context, to dht.NodeInfo, req *dht.Request) (*dht.Response, error) {
	rt.mu.Lock()
	node, ok := rt.nodes[to.Addr]
	there := rt.latency.Delay(rt.rng)
	back := rt.latency.Delay(rt.rng)
	rt.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simnet: node %s unreachable", to.Addr)
	}
	rt.messages.Add(2)
	rt.bytes.Add(uint64(req.WireSize()))

	if err := sleepCtx(ctx, there); err != nil {
		return nil, fmt.Errorf("simnet: call %s: %w", to.Addr, err)
	}
	resp := node.HandleRPC(req)
	if err := sleepCtx(ctx, back); err != nil {
		return nil, fmt.Errorf("simnet: call %s: %w", to.Addr, err)
	}

	rt.bytes.Add(uint64(resp.WireSize()))
	return resp, nil
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
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

// NewRealTimeCluster builds and bootstraps a DHT of n nodes over a
// RealTime transport, mirroring dht.NewCluster but with wall-clock link
// latency. Bootstrap pays real latency, so keep n modest (benchmarks use
// 12-24 nodes). When cfg.NewStorage is set it runs once per node (the
// disk-backed restart scenarios build their clusters here) and factory
// errors are returned rather than panicking.
//
//lint:allow unusedexport builds the wall-clock clusters of the plan, store and root tests
func NewRealTimeCluster(n int, seed int64, cfg dht.Config, latency LatencyModel) (*RealTime, []*dht.Node, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("simnet: cluster size %d must be positive", n)
	}
	rt := NewRealTime(latency, seed+1)
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*dht.Node, 0, n)
	for i := 0; i < n; i++ {
		info := dht.NodeInfo{ID: dht.SeededID(rng), Addr: fmt.Sprintf("rt-node-%d", i)}
		nodeCfg := cfg
		if cfg.NewStorage != nil {
			st, err := cfg.NewStorage(info)
			if err != nil {
				for _, prev := range nodes {
					prev.Close() //nolint:errcheck // best-effort unwind
				}
				return nil, nil, fmt.Errorf("simnet: storage for node %d: %w", i, err)
			}
			nodeCfg.NewStorage = func(dht.NodeInfo) (dht.Storage, error) { return st, nil }
		}
		node := dht.NewNode(info, rt, nodeCfg)
		rt.Join(node)
		nodes = append(nodes, node)
	}
	seeds := []dht.NodeInfo{nodes[0].Info()}
	// Bootstrap concurrently: each join is independent and the serial cost
	// over a latency-bearing network would dominate test time.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = nodes[i].JoinNetwork(seeds)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, n := range nodes {
				n.Close() //nolint:errcheck // already failing
			}
			return nil, nil, fmt.Errorf("simnet: bootstrap node %d: %w", i, err)
		}
	}
	return rt, nodes, nil
}
