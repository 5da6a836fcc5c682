// Package simnet provides a simulated message network on top of the
// discrete-event simulator. It models per-message latency and node
// failure, and keeps byte/message accounting so experiments can report
// bandwidth overheads the way the paper does.
//
// Network is single-threaded: all delivery happens inside sim callbacks.
// The latency models also drive the wall-clock links of dht.LocalNetwork
// (SetLatency) and the virtual-time links of scale.Net. Use package wire
// for the real TCP transport used by the deployment mode.
package simnet

import (
	"math/rand"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/sim"
)

// NodeID identifies an endpoint attached to the network.
type NodeID int

// Message is a payload in flight between two endpoints. Size is the number
// of bytes the message would occupy on a real wire and is charged to the
// network's byte counters.
type Message struct {
	From    NodeID
	To      NodeID
	Kind    string
	Payload any
	Size    int
}

// Handler receives delivered messages for one endpoint.
type Handler func(m Message)

// LatencyModel produces a one-way delay for each message.
type LatencyModel = dht.LatencyModel

// Constant is a LatencyModel with a fixed one-way delay.
//
//lint:allow unusedexport the fixed link latency of other packages' wall-clock cluster tests
type Constant time.Duration

// Delay implements LatencyModel.
func (c Constant) Delay(*rand.Rand) time.Duration { return time.Duration(c) }

// Uniform is a LatencyModel drawing delays uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Delay implements LatencyModel.
func (u Uniform) Delay(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// WideArea approximates Internet paths: a base propagation delay plus an
// exponential queueing tail. The defaults (see DefaultWideArea) land in the
// few-tens-to-low-hundreds of milliseconds regime reported for PlanetLab.
type WideArea struct {
	Base time.Duration // minimum one-way delay
	Tail time.Duration // mean of the exponential excess
}

// Delay implements LatencyModel.
func (w WideArea) Delay(rng *rand.Rand) time.Duration {
	return w.Base + time.Duration(rng.ExpFloat64()*float64(w.Tail))
}

// DefaultWideArea matches the latency regime of the paper's PlanetLab
// vantage points spread over two continents.
func DefaultWideArea() WideArea {
	return WideArea{Base: 30 * time.Millisecond, Tail: 40 * time.Millisecond}
}

// Stats accumulates traffic counters. Counters are totals since the network
// was created; use Snapshot/Sub to measure an interval.
type Stats struct {
	Messages uint64
	Bytes    uint64
	Dropped  uint64 // sent to a detached destination
	ByKind   map[string]KindStats
}

// KindStats are per-message-kind counters.
type KindStats struct {
	Messages uint64
	Bytes    uint64
}

// Network is a simulated datagram network. It is not safe for concurrent
// use; all calls must happen on the simulator goroutine.
type Network struct {
	sim      *sim.Sim
	latency  LatencyModel
	handlers map[NodeID]Handler
	stats    Stats
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the latency model (default: DefaultWideArea).
func WithLatency(m LatencyModel) Option { return func(n *Network) { n.latency = m } }

// New creates a network scheduled on s.
func New(s *sim.Sim, opts ...Option) *Network {
	n := &Network{
		sim:      s,
		latency:  DefaultWideArea(),
		handlers: make(map[NodeID]Handler),
	}
	n.stats.ByKind = make(map[string]KindStats)
	for _, o := range opts {
		o(n)
	}
	return n
}

// Attach registers h as the handler for id, replacing any previous handler.
func (n *Network) Attach(id NodeID, h Handler) { n.handlers[id] = h }

// Detach removes id from the network; in-flight messages to id are dropped
// at delivery time. This models node failure.
//
//lint:allow unusedexport the gnutella churn tests detach ultrapeers with it
func (n *Network) Detach(id NodeID) { delete(n.handlers, id) }

// Attached reports whether id currently has a handler.
//
//lint:allow unusedexport the gnutella churn tests probe ultrapeers with it
func (n *Network) Attached(id NodeID) bool {
	_, ok := n.handlers[id]
	return ok
}

// Send queues m for delivery after a sampled latency. The message is charged
// to the byte counters even if it is ultimately dropped, mirroring real
// networks where the sender pays for lost traffic.
func (n *Network) Send(m Message) {
	n.stats.Messages++
	n.stats.Bytes += uint64(m.Size)
	ks := n.stats.ByKind[m.Kind]
	ks.Messages++
	ks.Bytes += uint64(m.Size)
	n.stats.ByKind[m.Kind] = ks

	delay := n.latency.Delay(n.sim.Rand())
	n.sim.After(delay, func() {
		h, ok := n.handlers[m.To]
		if !ok {
			n.stats.Dropped++
			return
		}
		h(m)
	})
}
