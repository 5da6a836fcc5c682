package gnutella

import "testing"

func TestChurnDetachedUltrapeerStopsAnswering(t *testing.T) {
	topo := smallTopo(t)
	target := topo.UPAdj[0][0]
	lib := libWith(t, topo, map[HostID][]string{target: {"solo item.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: false, MaxTTL: 3, Seed: 4})
	net.DetachUltrapeer(target)
	if net.Alive(target) {
		t.Fatal("detached ultrapeer still alive")
	}
	q := net.Query(0, []string{"solo", "item"})
	net.Sim.Run()
	if len(q.Results) != 0 {
		t.Errorf("detached ultrapeer answered %d results", len(q.Results))
	}
	// Rejoin: the item becomes findable again.
	net.AttachUltrapeer(target)
	q2 := net.Query(0, []string{"solo", "item"})
	net.Sim.Run()
	if len(q2.Results) != 1 {
		t.Errorf("after rejoin: %d results, want 1", len(q2.Results))
	}
}

func TestChurnFloodingRoutesAroundFailure(t *testing.T) {
	topo := smallTopo(t)
	// Place the file at depth 2 and kill one depth-1 node; redundant paths
	// should still deliver the query.
	depth := BFSDepths(topo, 0)
	var far HostID = -1
	for u, d := range depth {
		if d == 2 {
			far = u
			break
		}
	}
	if far == -1 {
		t.Skip("no depth-2 ultrapeer")
	}
	lib := libWith(t, topo, map[HostID][]string{far: {"resilient file.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: false, MaxTTL: 4, Seed: 4})
	net.DetachUltrapeer(topo.UPAdj[0][0])
	q := net.Query(0, []string{"resilient", "file"})
	net.Sim.Run()
	if len(q.Results) != 1 {
		t.Errorf("flood failed to route around a dead neighbour: %d results", len(q.Results))
	}
}
