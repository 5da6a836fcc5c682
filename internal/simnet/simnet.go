// Package simnet is the virtual-time substrate the simulations share:
// Clock, a deterministic discrete-event scheduler; Net, the dht.Transport
// that runs RPCs on it; ClockConfig, which rebases a dht.Config onto it;
// and the latency models that draw per-message delays. The scale harness
// runs DHT clusters as Clock tasks over Net; the Gnutella overlay
// schedules its hops as Clock callbacks and is driven from main with
// RunUntil and Drain. Clock is the tree's only virtual-time scheduler.
//
// The latency models also drive the wall-clock links of
// dht.LocalNetwork (SetLatency). Use package wire for the real TCP
// transport used by the deployment mode.
package simnet

import (
	"math/rand"
	"time"

	"piersearch/internal/dht"
)

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
