package dht

import (
	"fmt"
	"math/rand"
)

// Cluster is a fully bootstrapped in-process DHT: the substrate PIER and
// the hybrid deployment experiments run on.
type Cluster struct {
	Net   *LocalNetwork
	Nodes []*Node
	rng   *rand.Rand
	next  int // address counter for nodes added after construction
}

// buildNode constructs one cluster node, surfacing storage-factory errors
// instead of letting NewNode panic: the factory is pre-invoked and the
// resulting instance threaded through a per-node Config copy.
func buildNode(info NodeInfo, transport Transport, cfg Config) (*Node, error) {
	if cfg.NewStorage != nil {
		st, err := cfg.NewStorage(info)
		if err != nil {
			return nil, fmt.Errorf("dht: storage for %s: %w", info.Addr, err)
		}
		cfg.NewStorage = func(NodeInfo) (Storage, error) { return st, nil }
	}
	return NewNode(info, transport, cfg), nil
}

// NewCluster builds and bootstraps a DHT of n nodes with deterministic IDs
// derived from seed. Every node joins via node 0. When cfg.NewStorage is
// set it runs once per node, so disk-backed clusters get one store
// directory each.
func NewCluster(n int, seed int64, cfg Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dht: cluster size %d must be positive", n)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Cluster{Net: NewLocalNetwork(seed + 1), rng: rng, next: n}
	for i := 0; i < n; i++ {
		info := NodeInfo{ID: SeededID(rng), Addr: fmt.Sprintf("node-%d", i)}
		node, err := buildNode(info, c.Net, cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Net.Join(node)
		c.Nodes = append(c.Nodes, node)
	}
	seeds := []NodeInfo{c.Nodes[0].Info()}
	for i, node := range c.Nodes {
		if i == 0 {
			continue
		}
		if err := node.JoinNetwork(seeds); err != nil {
			c.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("dht: bootstrap node %d: %w", i, err)
		}
	}
	return c, nil
}

// RemoveNode abruptly detaches the i-th node (churn: ungraceful leave).
// The node's stored values are lost unless replicated elsewhere. The
// node's storage is deliberately not closed — an ungraceful leave models
// a crash, and disk-backed stores must recover from exactly this state.
//
//lint:allow unusedexport churn tests in pier and piersearch remove nodes with it
func (c *Cluster) RemoveNode(i int) {
	if i < 0 || i >= len(c.Nodes) {
		return
	}
	c.Net.Remove(c.Nodes[i].Info().Addr)
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
}

// Close closes every node's storage, returning the first error. Clusters
// over in-memory stores need not call it; disk-backed clusters must, so
// WALs flush and lock files release.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
