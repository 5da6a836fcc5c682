package scale

import (
	"fmt"
	"math/rand"
	"sort"

	"piersearch/internal/dht"
	"piersearch/internal/simnet"
)

// contactsPerRange bounds how many contacts a node is seeded with from
// each sibling subtree. Kademlia keeps up to K per bucket, but seeding a
// handful is enough for O(log n) convergent lookups, and it keeps warm-up
// O(n log n) instead of O(n·k).
const contactsPerRange = 8

// Cluster is a virtual-time DHT cluster with warm routing tables. Unlike
// dht.NewCluster it performs zero RPCs to build: node IDs are sorted and
// each node is seeded with contacts in every sibling half of the ID space
// it shares a prefix with, the exact invariant iterative lookups need.
type Cluster struct {
	Clock *simnet.Clock
	Net   *simnet.Net
	Nodes []*dht.Node

	// byID holds indices into Nodes ordered by node ID; ids mirrors it.
	// Both back the exact-closest computation used for direct placement.
	byID []int
	ids  []dht.ID
}

// NewCluster builds n nodes on a fresh Net over clock. IDs derive from
// seed; cfg is rebased onto the virtual clock (see simnet.ClockConfig) so
// stored-value timestamps, lookup workers and maintenance loops all live
// in virtual time.
func NewCluster(n int, seed int64, clock *simnet.Clock, latency simnet.LatencyModel, cfg dht.Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("scale: cluster size %d must be positive", n)
	}
	cfg = simnet.ClockConfig(clock, cfg)
	c := &Cluster{Clock: clock, Net: simnet.NewNet(clock, latency, seed+1)}
	rng := rand.New(rand.NewSource(seed))
	c.Nodes = make([]*dht.Node, n)
	for i := 0; i < n; i++ {
		info := dht.NodeInfo{ID: dht.SeededID(rng), Addr: fmt.Sprintf("v-%d", i)}
		c.Nodes[i] = dht.NewNode(info, c.Net, cfg)
		c.Net.Join(c.Nodes[i])
	}
	c.byID = make([]int, n)
	for i := range c.byID {
		c.byID[i] = i
	}
	sort.Slice(c.byID, func(a, b int) bool {
		return dht.Less(c.Nodes[c.byID[a]].Info().ID, c.Nodes[c.byID[b]].Info().ID)
	})
	c.ids = make([]dht.ID, n)
	for i, idx := range c.byID {
		c.ids[i] = c.Nodes[idx].Info().ID
	}
	c.warmTables(0, n, dht.IDBits-1)
	return c, nil
}

// bitOf returns bit β of id, where β = IDBits-1 is the most significant
// bit — the same numbering as dht.BucketIndex.
func bitOf(id dht.ID, beta int) int {
	return int(id[dht.IDBytes-1-beta/8]>>(uint(beta)%8)) & 1
}

// splitAt returns the first position in sorted ids[lo:hi) whose bit beta
// is 1. All ids in the range share every bit above beta, so the range is
// 0-bits then 1-bits.
func (c *Cluster) splitAt(lo, hi, beta int) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return bitOf(c.ids[lo+i], beta) == 1
	})
}

// warmTables recursively seeds routing tables: at each level the sorted
// range splits into the two subtrees below bit beta, every node in one
// half learns up to contactsPerRange evenly spaced nodes of the other
// half, and recursion continues within each half. Every node ends up with
// contacts in every populated sibling subtree — warm enough that lookups
// converge in O(log n) hops with no bootstrap traffic.
func (c *Cluster) warmTables(lo, hi, beta int) {
	if hi-lo <= 1 || beta < 0 {
		return
	}
	mid := c.splitAt(lo, hi, beta)
	if mid > lo && mid < hi {
		c.seedRange(lo, mid, mid, hi)
		c.seedRange(mid, hi, lo, mid)
	}
	c.warmTables(lo, mid, beta-1)
	c.warmTables(mid, hi, beta-1)
}

// seedRange gives every node in [lo,hi) contacts spread over [olo,ohi).
// The selection is staggered by the node's own position so a large
// sibling subtree is not represented by the same few hot nodes in
// everyone's table.
func (c *Cluster) seedRange(lo, hi, olo, ohi int) {
	span := ohi - olo
	count := contactsPerRange
	if count > span {
		count = span
	}
	for p := lo; p < hi; p++ {
		node := c.Nodes[c.byID[p]]
		for j := 0; j < count; j++ {
			pick := olo + (j*span+p-lo)%span
			node.SeedContact(c.Nodes[c.byID[pick]].Info())
		}
	}
}

// Closest returns the r nodes whose IDs are XOR-closest to key, exactly —
// not a routing-table approximation. Direct placement must agree with
// what a later DHT lookup finds, and lookups early-stop at the true
// closest replica set.
func (c *Cluster) Closest(key dht.ID, r int) []*dht.Node {
	if r > len(c.Nodes) {
		r = len(c.Nodes)
	}
	out := make([]*dht.Node, 0, r)
	c.collectClosest(key, 0, len(c.ids), dht.IDBits-1, r, &out)
	return out
}

// collectClosest appends nodes of sorted range [lo,hi) in XOR-distance
// order from key: at each bit the half matching key's bit is uniformly
// closer than the other half, so visiting preferred-half-first yields
// exact order.
func (c *Cluster) collectClosest(key dht.ID, lo, hi, beta, want int, out *[]*dht.Node) {
	if len(*out) >= want || lo >= hi {
		return
	}
	if hi-lo == 1 || beta < 0 {
		for i := lo; i < hi && len(*out) < want; i++ {
			*out = append(*out, c.Nodes[c.byID[i]])
		}
		return
	}
	mid := c.splitAt(lo, hi, beta)
	if bitOf(key, beta) == 0 {
		c.collectClosest(key, lo, mid, beta-1, want, out)
		c.collectClosest(key, mid, hi, beta-1, want, out)
	} else {
		c.collectClosest(key, mid, hi, beta-1, want, out)
		c.collectClosest(key, lo, mid, beta-1, want, out)
	}
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.Close() //nolint:errcheck // best-effort teardown
	}
}
