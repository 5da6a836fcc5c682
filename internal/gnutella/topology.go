// Package gnutella simulates the Gnutella 0.6 unstructured overlay the
// paper measures in §4: a two-tier topology of ultrapeers and leaves, TTL-
// scoped flooding with duplicate suppression, dynamic querying (iterative
// deepening), reverse-path query-hit routing, QRP Bloom filters from leaves
// to ultrapeers, the BrowseHost view of a host's files (Library.Files), and
// the neighbour-list crawler API the paper's distributed crawl used.
//
// Two execution modes cover the paper's experiments:
//
//   - Study mode (study.go): analytic BFS over the topology — reach sets,
//     flood message counts, first-match depths. This is how Figures 4–8 are
//     computed at 100k-host scale without event-level simulation.
//   - Event mode (network.go): discrete-event flooding on internal/sim with
//     per-hop forwarding delays, used by the deployment experiments and to
//     validate the analytic mode.
package gnutella

import (
	"fmt"
	"math/rand"
)

// HostID identifies a host. Ultrapeers are 0..Ultrapeers-1; leaves follow.
type HostID = int

// TopologyConfig describes the overlay shape. The defaults mirror the
// paper's crawl findings (§4.1): newer LimeWire ultrapeers keep 32
// ultrapeer neighbours and up to 30 leaves; older ones keep 6 neighbours
// and up to 75 leaves.
type TopologyConfig struct {
	Ultrapeers      int
	Hosts           int     // total hosts (ultrapeers + leaves)
	NewClientFrac   float64 // fraction of ultrapeers running the new client
	NewDegree       int     // UP neighbours for new clients (default 32)
	OldDegree       int     // UP neighbours for old clients (default 6)
	NewLeafCapacity int     // leaf slots, new client (default 30)
	OldLeafCapacity int     // leaf slots, old client (default 75)
	Seed            int64
}

// Normalize fills defaults and returns the config.
func (c TopologyConfig) Normalize() TopologyConfig {
	if c.Ultrapeers <= 0 {
		c.Ultrapeers = 1000
	}
	if c.Hosts <= c.Ultrapeers {
		c.Hosts = c.Ultrapeers * 5
	}
	if c.NewDegree <= 0 {
		c.NewDegree = 32
	}
	if c.OldDegree <= 0 {
		c.OldDegree = 6
	}
	if c.NewLeafCapacity <= 0 {
		c.NewLeafCapacity = 30
	}
	if c.OldLeafCapacity <= 0 {
		c.OldLeafCapacity = 75
	}
	if c.NewClientFrac < 0 || c.NewClientFrac > 1 {
		c.NewClientFrac = 0.1
	}
	return c
}

// Topology is a generated overlay graph.
type Topology struct {
	Cfg      TopologyConfig
	UPAdj    [][]HostID // ultrapeer adjacency lists
	IsNew    []bool     // per-ultrapeer client generation
	LeafUP   []HostID   // for leaf hosts: owning ultrapeer (index by host-Ultrapeers)
	UPLeaves [][]HostID // per-ultrapeer attached leaves
}

// NewTopology generates a topology: each ultrapeer requests its degree in
// random peers (undirected, deduplicated) and leaves attach to random
// ultrapeers with free capacity.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	cfg = cfg.Normalize()
	if cfg.Ultrapeers < 2 {
		return nil, fmt.Errorf("gnutella: need at least 2 ultrapeers")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{
		Cfg:      cfg,
		UPAdj:    make([][]HostID, cfg.Ultrapeers),
		IsNew:    make([]bool, cfg.Ultrapeers),
		UPLeaves: make([][]HostID, cfg.Ultrapeers),
	}
	for u := range t.IsNew {
		t.IsNew[u] = rng.Float64() < cfg.NewClientFrac
	}

	// Ultrapeer graph: degree-targeted random matching. Each node draws
	// until it has ~degree distinct neighbours; edges are mutual.
	adjSet := make([]map[HostID]bool, cfg.Ultrapeers)
	for u := range adjSet {
		adjSet[u] = make(map[HostID]bool)
	}
	degree := func(u HostID) int {
		if t.IsNew[u] {
			return cfg.NewDegree
		}
		return cfg.OldDegree
	}
	addEdge := func(u, v HostID) {
		adjSet[u][v] = true
		adjSet[v][u] = true
		t.UPAdj[u] = append(t.UPAdj[u], v)
		t.UPAdj[v] = append(t.UPAdj[v], u)
	}
	for u := 0; u < cfg.Ultrapeers; u++ {
		want := degree(u)
		for attempts := 0; len(adjSet[u]) < want && attempts < want*8; attempts++ {
			v := rng.Intn(cfg.Ultrapeers)
			if v == u || adjSet[u][v] {
				continue
			}
			// Respect the peer's own target loosely (2x slack), keeping
			// the graph close to the configured degrees.
			if len(adjSet[v]) >= degree(v)*2 {
				continue
			}
			addEdge(u, v)
		}
	}
	// Connectivity backstop: chain any isolated ultrapeers into the graph.
	for u := 1; u < cfg.Ultrapeers; u++ {
		if len(adjSet[u]) == 0 {
			addEdge(u, HostID(rng.Intn(u)))
		}
	}

	// Leaves: attach to random ultrapeers with capacity.
	leaves := cfg.Hosts - cfg.Ultrapeers
	t.LeafUP = make([]HostID, leaves)
	capacity := func(u HostID) int {
		if t.IsNew[u] {
			return cfg.NewLeafCapacity
		}
		return cfg.OldLeafCapacity
	}
	for l := 0; l < leaves; l++ {
		host := cfg.Ultrapeers + l
		for {
			u := rng.Intn(cfg.Ultrapeers)
			if len(t.UPLeaves[u]) < capacity(u) {
				t.LeafUP[l] = u
				t.UPLeaves[u] = append(t.UPLeaves[u], host)
				break
			}
		}
	}
	return t, nil
}

// NumHosts returns the total host count.
func (t *Topology) NumHosts() int { return t.Cfg.Hosts }

// NumUltrapeers returns the ultrapeer count.
func (t *Topology) NumUltrapeers() int { return t.Cfg.Ultrapeers }

// IsUltrapeer reports whether host is an ultrapeer.
func (t *Topology) IsUltrapeer(host HostID) bool { return host < t.Cfg.Ultrapeers }

// UltrapeerOf returns the ultrapeer responsible for host: itself for an
// ultrapeer, its parent for a leaf.
func (t *Topology) UltrapeerOf(host HostID) HostID {
	if t.IsUltrapeer(host) {
		return host
	}
	return t.LeafUP[host-t.Cfg.Ultrapeers]
}

// Degree returns the ultrapeer-graph degree of ultrapeer u.
func (t *Topology) Degree(u HostID) int { return len(t.UPAdj[u]) }

// AvgDegree returns the mean ultrapeer degree.
func (t *Topology) AvgDegree() float64 {
	total := 0
	for u := range t.UPAdj {
		total += len(t.UPAdj[u])
	}
	return float64(total) / float64(len(t.UPAdj))
}

// HostsOf returns the hosts an ultrapeer answers for: itself + its leaves.
func (t *Topology) HostsOf(u HostID) []HostID {
	out := make([]HostID, 0, 1+len(t.UPLeaves[u]))
	out = append(out, u)
	out = append(out, t.UPLeaves[u]...)
	return out
}
