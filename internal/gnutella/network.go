package gnutella

import (
	"math/rand"
	"time"

	"piersearch/internal/simnet"
)

// NetworkConfig tunes the event-driven overlay.
type NetworkConfig struct {
	// HopDelay is the per-hop forwarding delay. Gnutella ultrapeers queue
	// and rate-limit forwarded traffic, so effective per-hop delays are in
	// seconds; the default (1.25s–2.25s uniform) calibrates first-result
	// latencies to the §4.2 regime (≈6 s popular, ≈73 s single-result).
	HopDelay simnet.LatencyModel
	// DynamicQuery enables iterative deepening (§4's dynamic querying).
	DynamicQuery bool
	// MaxTTL bounds the search horizon (default 5).
	MaxTTL int
	// DesiredResults stops deepening once this many results arrived
	// (default 20).
	DesiredResults int
	// RoundWait is how long the origin waits for a round's results before
	// re-flooding deeper (default 12 s).
	RoundWait time.Duration
	// Seed drives the hop-delay sampling.
	Seed int64
}

// Normalize fills defaults and returns the config.
func (c NetworkConfig) Normalize() NetworkConfig {
	if c.HopDelay == nil {
		c.HopDelay = simnet.Uniform{Min: 1250 * time.Millisecond, Max: 2250 * time.Millisecond}
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 5
	}
	if c.DesiredResults <= 0 {
		c.DesiredResults = 20
	}
	if c.RoundWait <= 0 {
		c.RoundWait = 12 * time.Second
	}
	return c
}

// Hit is one query answer observed at the origin.
type Hit struct {
	Ref FileRef
	At  time.Duration // virtual arrival time, relative to query start
}

// QueryOutcome accumulates one query's results as the simulation runs.
type QueryOutcome struct {
	Origin   HostID // the ultrapeer the query entered the overlay at
	Terms    []string
	Started  time.Duration
	Results  []Hit
	Messages int // query + hit transmissions attributable to this query
	Rounds   int // dynamic-query rounds issued

	seen map[FileRef]bool
	// prev is the reverse path table: the hop each ultrapeer first heard
	// a round's GUID from. A GUID belongs to this query alone, so the
	// table lives (and is freed) with it.
	prev map[hop]HostID
}

// hop keys the reverse path table: one GUID at one ultrapeer.
type hop struct {
	guid uint64
	up   HostID
}

// FirstResultLatency returns the delay from query start to the first hit,
// or -1 when no results arrived.
func (q *QueryOutcome) FirstResultLatency() time.Duration {
	if len(q.Results) == 0 {
		return -1
	}
	first := q.Results[0].At
	for _, h := range q.Results[1:] {
		if h.At < first {
			first = h.At
		}
	}
	return first - q.Started
}

// queryMsg floods outward; hitMsg routes back along the reverse path.
type queryMsg struct {
	GUID  uint64
	Terms []string
	TTL   int
	Hops  int
}

type hitMsg struct {
	GUID uint64
	Refs []FileRef
}

// Network is the event-driven Gnutella overlay. Every hop is a Clock
// callback; nothing runs until the caller advances Clock (RunUntil or
// Drain).
type Network struct {
	Clock *simnet.Clock
	cfg   NetworkConfig
	topo  *Topology
	lib   *Library
	rng   *rand.Rand // hop delays, drawn in send order

	nextGUID uint64
}

// NewNetwork builds the event overlay for topo/lib on a fresh clock.
func NewNetwork(topo *Topology, lib *Library, cfg NetworkConfig) *Network {
	cfg = cfg.Normalize()
	return &Network{
		Clock: simnet.NewClock(),
		cfg:   cfg,
		topo:  topo,
		lib:   lib,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Query injects a query at origin (a leaf enters via its ultrapeer) and
// returns its outcome, which fills in as the clock advances. Run
// n.Clock.RunUntil or Drain to make progress.
func (n *Network) Query(origin HostID, terms []string) *QueryOutcome {
	up := n.topo.UltrapeerOf(origin)
	q := &QueryOutcome{
		Origin:  up,
		Terms:   terms,
		Started: n.Clock.Now(),
		seen:    make(map[FileRef]bool),
		prev:    make(map[hop]HostID),
	}
	if n.cfg.DynamicQuery {
		n.round(q, 1)
	} else {
		n.round(q, n.cfg.MaxTTL)
	}
	return q
}

// round floods one dynamic-query round with TTL=ttl and schedules the next
// round if needed.
func (n *Network) round(q *QueryOutcome, ttl int) {
	q.Rounds++
	n.nextGUID++
	guid := n.nextGUID
	q.prev[hop{guid, q.Origin}] = q.Origin // origin: reverse path terminates here

	// The origin ultrapeer answers from its own subtree immediately.
	n.recordHits(q, n.lib.MatchAt(q.Origin, q.Terms), n.Clock.Now())

	msg := queryMsg{GUID: guid, Terms: q.Terms, TTL: ttl, Hops: 1}
	for _, v := range n.topo.UPAdj[q.Origin] {
		n.send(q, func() { n.handleQuery(q, v, q.Origin, msg) })
	}

	if n.cfg.DynamicQuery && ttl < n.cfg.MaxTTL {
		n.Clock.At(n.Clock.Now()+n.cfg.RoundWait, func() {
			if len(q.Results) < n.cfg.DesiredResults {
				n.round(q, ttl+1)
			}
		})
	}
}

// send charges one transmission to q and runs deliver at the receiving
// ultrapeer one sampled hop delay from now.
func (n *Network) send(q *QueryOutcome, deliver func()) {
	q.Messages++
	n.Clock.At(n.Clock.Now()+n.cfg.HopDelay.Delay(n.rng), deliver)
}

func (n *Network) handleQuery(q *QueryOutcome, at, from HostID, msg queryMsg) {
	h := hop{msg.GUID, at}
	if _, dup := q.prev[h]; dup {
		return // duplicate suppression: already answered this GUID
	}
	q.prev[h] = from

	if refs := n.lib.MatchAt(at, msg.Terms); len(refs) > 0 {
		hit := hitMsg{GUID: msg.GUID, Refs: refs}
		n.send(q, func() { n.handleHit(q, from, hit) })
	}
	if msg.TTL > 1 {
		fwd := msg
		fwd.TTL--
		fwd.Hops++
		for _, v := range n.topo.UPAdj[at] {
			if v != from {
				n.send(q, func() { n.handleQuery(q, v, at, fwd) })
			}
		}
	}
}

// handleHit routes a hit one hop back toward the origin. Every ultrapeer
// a hit reaches forwarded its query, so its reverse path entry is there.
func (n *Network) handleHit(q *QueryOutcome, at HostID, msg hitMsg) {
	if at == q.Origin {
		n.recordHits(q, msg.Refs, n.Clock.Now())
		return
	}
	prev := q.prev[hop{msg.GUID, at}]
	n.send(q, func() { n.handleHit(q, prev, msg) })
}

func (n *Network) recordHits(q *QueryOutcome, refs []FileRef, at time.Duration) {
	for _, ref := range refs {
		if q.seen[ref] {
			continue // dynamic-query rounds re-discover earlier results
		}
		q.seen[ref] = true
		q.Results = append(q.Results, Hit{Ref: ref, At: at})
	}
}
