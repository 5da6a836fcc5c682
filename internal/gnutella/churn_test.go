package gnutella

import (
	"testing"
	"time"
)

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

func TestBrowseHost(t *testing.T) {
	topo := smallTopo(t)
	leaf := 200
	lib := libWith(t, topo, map[HostID][]string{leaf: {"shared a.mp3", "shared b.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{Seed: 4})
	var got []SharedFile
	net.BrowseHost(0, leaf, func(files []SharedFile) { got = files })
	net.Sim.Run()
	if len(got) != 2 {
		t.Fatalf("BrowseHost returned %d files", len(got))
	}
	// Browsing an empty host returns an empty (but delivered) list.
	delivered := false
	net.BrowseHost(0, 201, func(files []SharedFile) { delivered = true; got = files })
	net.Sim.Run()
	if !delivered || len(got) != 0 {
		t.Errorf("empty BrowseHost: delivered=%v files=%d", delivered, len(got))
	}
}

func TestBrowseHostLocalSubtree(t *testing.T) {
	topo := smallTopo(t)
	u := topo.UltrapeerOf(200)
	lib := libWith(t, topo, map[HostID][]string{200: {"local file.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{Seed: 4})
	var got []SharedFile
	net.BrowseHost(u, 200, func(files []SharedFile) { got = files })
	net.Sim.Run()
	if len(got) != 1 {
		t.Errorf("local BrowseHost returned %d files", len(got))
	}
}

func TestPingPong(t *testing.T) {
	topo := smallTopo(t)
	lib := libWith(t, topo, nil)
	net := NewNetwork(topo, lib, NetworkConfig{Seed: 4})
	var rtt time.Duration
	net.PingPong(0, topo.UPAdj[0][0], func(d time.Duration) { rtt = d })
	net.Sim.Run()
	// Two one-way hops of 1.25-2.25s each.
	if rtt < 2500*time.Millisecond || rtt > 4500*time.Millisecond {
		t.Errorf("RTT = %v, want 2.5-4.5s", rtt)
	}
}
