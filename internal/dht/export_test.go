package dht

import "fmt"

// Only this package's tests use what follows.

// AddNode creates, registers and bootstraps one more node (churn: join).
func (c *Cluster) AddNode(cfg Config) (*Node, error) {
	info := NodeInfo{ID: SeededID(c.rng), Addr: fmt.Sprintf("node-%d", c.next)}
	c.next++
	node, err := buildNode(info, c.Net, cfg)
	if err != nil {
		return nil, err
	}
	c.Net.Join(node)
	if len(c.Nodes) > 0 {
		if err := node.JoinNetwork([]NodeInfo{c.Nodes[0].Info()}); err != nil {
			c.Net.Remove(node.Info().Addr)
			node.Close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	c.Nodes = append(c.Nodes, node)
	return node, nil
}

// RandomNode returns a uniformly random live node.
func (c *Cluster) RandomNode() *Node {
	return c.Nodes[c.rng.Intn(len(c.Nodes))]
}

// SetFailureProbability makes each Call fail independently with probability
// p, modelling lossy links or overloaded nodes.
func (ln *LocalNetwork) SetFailureProbability(p float64) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.failProb = p
}

// Lookup returns the registered node at addr, if any.
func (ln *LocalNetwork) Lookup(addr string) (*Node, bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	n, ok := ln.nodes[addr]
	return n, ok
}

// Len returns the number of registered nodes.
func (ln *LocalNetwork) Len() int {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return len(ln.nodes)
}
