package gnutella

import (
	"time"

	"piersearch/internal/sim"
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
	// Seed drives the network latency sampling.
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
	ID       uint64
	Origin   HostID // the ultrapeer the query entered the overlay at
	Terms    []string
	Started  time.Duration
	Results  []Hit
	Messages int // query + hit transmissions attributable to this query
	Rounds   int // dynamic-query rounds issued

	seen map[FileRef]bool
	done bool
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
	QID   uint64
	GUID  uint64
	Terms []string
	TTL   int
	Hops  int
}

type hitMsg struct {
	QID  uint64
	GUID uint64
	Refs []FileRef
}

// upState is the per-ultrapeer protocol state.
type upState struct {
	id       HostID
	seenGUID map[uint64]HostID // GUID -> previous hop (reverse path table)
}

// Network is the event-driven Gnutella overlay.
type Network struct {
	Sim  *sim.Sim
	cfg  NetworkConfig
	topo *Topology
	lib  *Library
	net  *simnet.Network
	ups  []*upState

	queries  map[uint64]*QueryOutcome
	nextQID  uint64
	nextGUID uint64
}

// NewNetwork builds the event overlay for topo/lib on a fresh simulator.
func NewNetwork(topo *Topology, lib *Library, cfg NetworkConfig) *Network {
	cfg = cfg.Normalize()
	s := sim.New(cfg.Seed)
	n := &Network{
		Sim:     s,
		cfg:     cfg,
		topo:    topo,
		lib:     lib,
		net:     simnet.New(s, simnet.WithLatency(cfg.HopDelay)),
		queries: make(map[uint64]*QueryOutcome),
	}
	for u := 0; u < topo.NumUltrapeers(); u++ {
		st := &upState{id: u, seenGUID: make(map[uint64]HostID)}
		n.ups = append(n.ups, st)
		id := simnet.NodeID(u)
		n.net.Attach(id, func(m simnet.Message) { n.deliver(st, m) })
	}
	return n
}

// Query injects a query at origin (a leaf enters via its ultrapeer) and
// returns its outcome, which fills in as the simulation advances. Run the
// simulator (n.Sim.Run or RunUntil) to make progress.
func (n *Network) Query(origin HostID, terms []string) *QueryOutcome {
	up := n.topo.UltrapeerOf(origin)
	n.nextQID++
	q := &QueryOutcome{
		ID:      n.nextQID,
		Origin:  up,
		Terms:   terms,
		Started: n.Sim.Now(),
		seen:    make(map[FileRef]bool),
	}
	n.queries[q.ID] = q
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
	st := n.ups[q.Origin]
	st.seenGUID[guid] = q.Origin // origin: reverse path terminates here

	// The origin ultrapeer answers from its own subtree immediately.
	n.recordHits(q, n.lib.MatchAt(q.Origin, q.Terms), n.Sim.Now())

	msg := queryMsg{QID: q.ID, GUID: guid, Terms: q.Terms, TTL: ttl, Hops: 1}
	for _, v := range n.topo.UPAdj[q.Origin] {
		n.send(q, q.Origin, v, "query", msg)
	}

	if n.cfg.DynamicQuery && ttl < n.cfg.MaxTTL {
		n.Sim.After(n.cfg.RoundWait, func() {
			if len(q.Results) < n.cfg.DesiredResults {
				n.round(q, ttl+1)
			} else {
				q.done = true
			}
		})
	}
}

func (n *Network) send(q *QueryOutcome, from, to HostID, kind string, payload any) {
	q.Messages++
	size := 60 // Gnutella header + descriptor, approximate
	if qm, ok := payload.(queryMsg); ok {
		for _, t := range qm.Terms {
			size += len(t) + 1
		}
	}
	if hm, ok := payload.(hitMsg); ok {
		size += len(hm.Refs) * 80 // result record: name, size, host, port
	}
	n.net.Send(simnet.Message{From: simnet.NodeID(from), To: simnet.NodeID(to), Kind: kind, Payload: payload, Size: size})
}

func (n *Network) deliver(st *upState, m simnet.Message) {
	switch msg := m.Payload.(type) {
	case queryMsg:
		n.handleQuery(st, HostID(m.From), msg)
	case hitMsg:
		n.handleHit(st, msg)
	}
}

func (n *Network) handleQuery(st *upState, from HostID, msg queryMsg) {
	q := n.queries[msg.QID]
	if q == nil {
		return
	}
	if _, dup := st.seenGUID[msg.GUID]; dup {
		return // duplicate suppression: already answered this GUID
	}
	st.seenGUID[msg.GUID] = from

	if refs := n.lib.MatchAt(st.id, msg.Terms); len(refs) > 0 {
		n.send(q, st.id, from, "queryhit", hitMsg{QID: msg.QID, GUID: msg.GUID, Refs: refs})
	}
	if msg.TTL > 1 {
		fwd := msg
		fwd.TTL--
		fwd.Hops++
		for _, v := range n.topo.UPAdj[st.id] {
			if v != from {
				n.send(q, st.id, v, "query", fwd)
			}
		}
	}
}

func (n *Network) handleHit(st *upState, msg hitMsg) {
	q := n.queries[msg.QID]
	if q == nil {
		return
	}
	prev, ok := st.seenGUID[msg.GUID]
	if !ok {
		return // path expired
	}
	if st.id == q.Origin {
		n.recordHits(q, msg.Refs, n.Sim.Now())
		return
	}
	n.send(q, st.id, prev, "queryhit", msg)
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
