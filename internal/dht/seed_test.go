package dht

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestSeedContactPopulatesTableWithoutRPCs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewLocalNetwork(1)
	self := NewNode(NodeInfo{ID: SeededID(rng), Addr: "self"}, net, Config{})
	net.Join(self)
	defer self.Close()

	inserted := 0
	for i := 0; i < 64; i++ {
		peer := NodeInfo{ID: SeededID(rng), Addr: fmt.Sprintf("peer-%d", i)}
		if self.SeedContact(peer) {
			inserted++
		}
	}
	if inserted == 0 || self.TableLen() != inserted {
		t.Fatalf("inserted %d contacts, table holds %d", inserted, self.TableLen())
	}
	// Seeding must never ping: none of the peers were joined to the
	// network, so any liveness RPC would have errored and evicted, and the
	// transport would show traffic.
	if s := net.Stats(); s.Messages != 0 {
		t.Fatalf("SeedContact issued %d messages, want 0", s.Messages)
	}
	if self.SeedContact(self.Info()) {
		t.Error("SeedContact accepted the node's own ID")
	}
	if self.SeedContact(NodeInfo{Addr: "zero"}) {
		t.Error("SeedContact accepted a zero ID")
	}
}

func TestRepublishDeterministicOrder(t *testing.T) {
	// Two same-seed clusters republishing the same values must issue the
	// same RPC sequence; with map-ordered keys the traffic counts drift.
	// Alpha is pinned to 1: a single lookup worker probes in a fully
	// deterministic order, which is what makes traffic-count equality a
	// meaningful assertion (the parallel default is schedule-dependent).
	run := func() (int, LookupStats) {
		c, err := NewCluster(24, 42, Config{Alpha: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 40; i++ {
			key := SeededID(rng)
			c.Nodes[0].LocalPut(key, []byte(fmt.Sprintf("v-%d", i)))
		}
		return c.Nodes[0].Republish()
	}
	n1, s1 := run()
	n2, s2 := run()
	if n1 != 40 || n2 != 40 {
		t.Fatalf("republished %d/%d values, want 40", n1, n2)
	}
	if s1 != s2 {
		t.Fatalf("republish traffic differs across identical runs: %+v vs %+v", s1, s2)
	}
}

func TestRepublishVisitsKeysInIDOrder(t *testing.T) {
	c := testCluster(t, 8)
	defer c.Close()
	rng := rand.New(rand.NewSource(23))
	var keys []ID
	for i := 0; i < 16; i++ {
		k := SeededID(rng)
		keys = append(keys, k)
		c.Nodes[0].LocalPut(k, []byte{byte(i)})
	}
	sort.Slice(keys, func(i, j int) bool { return Less(keys[i], keys[j]) })
	n, _ := c.Nodes[0].Republish()
	if n != 16 {
		t.Fatalf("republished %d, want 16", n)
	}
	// Every key must now be resolvable from another node (the re-store
	// actually happened for all of them, whatever the order).
	for _, k := range keys {
		vals, _, err := c.Nodes[5].GetIDContext(context.Background(), k)
		if err != nil || len(vals) == 0 {
			t.Fatalf("key %x unresolvable after republish: %v", k[:4], err)
		}
	}
}
