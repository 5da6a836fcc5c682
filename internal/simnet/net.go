package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"piersearch/internal/dht"
)

// Net is the virtual-time dht.Transport: each RPC pays two sampled
// latency legs as Clock.Sleep calls instead of wall-clock timers, so a
// 100k-node cluster's traffic executes as fast as the host can switch
// tasks. Latency is drawn from the same LatencyModel vocabulary as the
// wall-clock transports; because the clock serialises callers, the
// shared rng is consumed in a reproducible order.
//
// Churn is modelled with Detach/Reattach: a detached node stays
// registered but unreachable (calls fail after the request leg, like a
// dead host behind a live route), and reattaching restores it with its
// state intact — the transient-failure model the paper's availability
// argument assumes.
type Net struct {
	clock   *Clock
	latency LatencyModel

	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[string]*dht.Node
	down  map[string]bool

	messages uint64
	bytes    uint64

	// Per-destination totals, attributed to the callee: both legs of an
	// RPC count against the node that served (or failed to serve) it.
	// This is the load profile the hot-key phases compare — "how much
	// traffic did the hottest node absorb".
	perMsgs  map[string]uint64
	perBytes map[string]uint64
}

// NewNet creates a transport on clock. latency nil means
// DefaultWideArea; seed drives latency sampling.
func NewNet(clock *Clock, latency LatencyModel, seed int64) *Net {
	if latency == nil {
		latency = DefaultWideArea()
	}
	return &Net{
		clock:    clock,
		latency:  latency,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[string]*dht.Node),
		down:     make(map[string]bool),
		perMsgs:  make(map[string]uint64),
		perBytes: make(map[string]uint64),
	}
}

// Join registers n so other nodes can reach it.
func (vn *Net) Join(n *dht.Node) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.nodes[n.Info().Addr] = n
}

// Remove unregisters the node at addr permanently.
func (vn *Net) Remove(addr string) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	delete(vn.nodes, addr)
	delete(vn.down, addr)
}

// Detach makes the node at addr unreachable without forgetting it (a
// crashed or partitioned host).
func (vn *Net) Detach(addr string) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	if _, ok := vn.nodes[addr]; ok {
		vn.down[addr] = true
	}
}

// Reattach restores a detached node.
func (vn *Net) Reattach(addr string) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	delete(vn.down, addr)
}

// Messages returns total one-way messages carried (request + response per
// RPC, matching the other transports' accounting).
func (vn *Net) Messages() uint64 {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	return vn.messages
}

// Bytes returns total wire bytes carried.
func (vn *Net) Bytes() uint64 {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	return vn.bytes
}

// PerNode returns copies of the per-destination message and byte totals.
// Subtract two snapshots to get one phase's per-node load.
func (vn *Net) PerNode() (msgs, bytes map[string]uint64) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	msgs = make(map[string]uint64, len(vn.perMsgs))
	for a, v := range vn.perMsgs {
		msgs[a] = v
	}
	bytes = make(map[string]uint64, len(vn.perBytes))
	for a, v := range vn.perBytes {
		bytes[a] = v
	}
	return msgs, bytes
}

// CallContext implements dht.Transport. Callers must be clock
// tasks: both latency legs are virtual sleeps. The context is consulted at
// the call boundary — virtual time cannot race a caller-side cancel the
// way wall-clock transports can, so a context canceled before the call
// fails it and the handler never runs.
func (vn *Net) CallContext(ctx context.Context, to dht.NodeInfo, req *dht.Request) (*dht.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("simnet: call %s: %w", to.Addr, err)
	}
	vn.mu.Lock()
	there := vn.latency.Delay(vn.rng)
	back := vn.latency.Delay(vn.rng)
	vn.messages += 2
	vn.bytes += uint64(req.WireSize())
	vn.perMsgs[to.Addr] += 2
	vn.perBytes[to.Addr] += uint64(req.WireSize())
	vn.mu.Unlock()

	vn.clock.Sleep(there)
	vn.mu.Lock()
	node, ok := vn.nodes[to.Addr]
	if vn.down[to.Addr] {
		ok = false
	}
	vn.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simnet: node %s unreachable", to.Addr)
	}
	resp := node.HandleRPC(req)
	vn.clock.Sleep(back)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("simnet: call %s: %w", to.Addr, err)
	}

	vn.mu.Lock()
	vn.bytes += uint64(resp.WireSize())
	vn.perBytes[to.Addr] += uint64(resp.WireSize())
	vn.mu.Unlock()
	return resp, nil
}

// lookupWaitPoll is the virtual time between checks when a starved lookup
// worker waits for in-flight probes. Each poll costs one scheduler event,
// so it is deliberately coarse relative to simulated RPC latency: a
// starved worker re-checks a few times per in-flight probe instead of
// dozens, which keeps large replays' event counts (and wall time) down.
const lookupWaitPoll = 50 * time.Millisecond

// ClockConfig adapts cfg to run under clock: timestamps, task spawning,
// sleeping and lookup waits all route through the virtual-time scheduler,
// so DHT maintenance loops and α-parallel lookup workers are ordinary
// clock tasks and same-seed replays stay byte-identical.
func ClockConfig(clock *Clock, cfg dht.Config) dht.Config {
	cfg.Clock = clock.Now
	cfg.Go = clock.Go
	cfg.Sleep = clock.Sleep
	cfg.LookupWait = func(ctx context.Context, wake <-chan struct{}) {
		// Poll rather than select: a bare channel receive would block
		// outside the clock and stall the scheduler forever.
		for {
			select {
			case <-wake:
				return
			default:
			}
			if ctx.Err() != nil {
				return
			}
			clock.Sleep(lookupWaitPoll)
		}
	}
	return cfg
}
