package gnutella

import (
	"fmt"
	"testing"
	"time"

	"piersearch/internal/piersearch"
)

func smallTopo(t testing.TB) *Topology {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{
		Ultrapeers: 200, Hosts: 1200, NewClientFrac: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyShape(t *testing.T) {
	topo := smallTopo(t)
	if topo.NumHosts() != 1200 || topo.NumUltrapeers() != 200 {
		t.Fatalf("hosts=%d ups=%d", topo.NumHosts(), topo.NumUltrapeers())
	}
	// Every leaf attached to a valid ultrapeer; capacity respected.
	for l, u := range topo.LeafUP {
		if u < 0 || u >= 200 {
			t.Fatalf("leaf %d attached to %d", l, u)
		}
	}
	for u, leaves := range topo.UPLeaves {
		capacity := topo.Cfg.OldLeafCapacity
		if topo.IsNew[u] {
			capacity = topo.Cfg.NewLeafCapacity
		}
		if len(leaves) > capacity {
			t.Fatalf("ultrapeer %d has %d leaves, capacity %d", u, len(leaves), capacity)
		}
	}
}

func TestTopologyAdjacencySymmetric(t *testing.T) {
	topo := smallTopo(t)
	edges := map[[2]HostID]bool{}
	for u, nbrs := range topo.UPAdj {
		for _, v := range nbrs {
			if v == u {
				t.Fatalf("self loop at %d", u)
			}
			edges[[2]HostID{u, v}] = true
		}
	}
	for e := range edges {
		if !edges[[2]HostID{e[1], e[0]}] {
			t.Fatalf("edge %v not symmetric", e)
		}
	}
}

func TestTopologyConnected(t *testing.T) {
	topo := smallTopo(t)
	depth := BFSDepths(topo, 0)
	for u, d := range depth {
		if d < 0 {
			t.Fatalf("ultrapeer %d unreachable", u)
		}
	}
}

func TestTopologyDegreesTrackClientMix(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{Ultrapeers: 500, Hosts: 2000, NewClientFrac: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var newSum, newN, oldSum, oldN int
	for u := range topo.UPAdj {
		if topo.IsNew[u] {
			newSum += topo.Degree(u)
			newN++
		} else {
			oldSum += topo.Degree(u)
			oldN++
		}
	}
	if newN == 0 || oldN == 0 {
		t.Skip("degenerate client mix")
	}
	if float64(newSum)/float64(newN) <= float64(oldSum)/float64(oldN) {
		t.Errorf("new-client avg degree %.1f <= old-client %.1f",
			float64(newSum)/float64(newN), float64(oldSum)/float64(oldN))
	}
}

func TestUltrapeerOf(t *testing.T) {
	topo := smallTopo(t)
	if topo.UltrapeerOf(5) != 5 {
		t.Error("ultrapeer not its own responsible UP")
	}
	leafHost := 200 // first leaf
	u := topo.UltrapeerOf(leafHost)
	found := false
	for _, l := range topo.UPLeaves[u] {
		if l == leafHost {
			found = true
		}
	}
	if !found {
		t.Error("UltrapeerOf leaf inconsistent with UPLeaves")
	}
}

func TestNewTopologyErrors(t *testing.T) {
	if _, err := NewTopology(TopologyConfig{Ultrapeers: 1, Hosts: 10}); err == nil {
		t.Error("single-ultrapeer topology accepted")
	}
}

func libWith(t testing.TB, topo *Topology, files map[HostID][]string) *Library {
	t.Helper()
	lib := NewLibrary(topo, piersearch.Tokenizer{})
	for host, names := range files {
		for _, name := range names {
			lib.AddFile(host, SharedFile{Name: name, Size: 1000})
		}
	}
	return lib
}

func TestLibraryMatchAt(t *testing.T) {
	topo := smallTopo(t)
	leaf := 200
	u := topo.UltrapeerOf(leaf)
	lib := libWith(t, topo, map[HostID][]string{
		leaf: {"madonna like a prayer.mp3", "beatles help.mp3"},
		u:    {"madonna music.mp3"},
	})
	if got := lib.MatchAt(u, []string{"madonna"}); len(got) != 2 {
		t.Errorf("MatchAt(madonna) = %d refs, want 2", len(got))
	}
	if got := lib.MatchAt(u, []string{"madonna", "prayer"}); len(got) != 1 {
		t.Errorf("MatchAt(madonna prayer) = %d refs, want 1", len(got))
	}
	if got := lib.MatchAt(u, []string{"elvis"}); got != nil {
		t.Errorf("MatchAt(elvis) = %v, want none", got)
	}
	if got := lib.MatchAt(u, nil); got != nil {
		t.Errorf("MatchAt(no terms) = %v", got)
	}
	// Other ultrapeers see nothing.
	other := (u + 1) % topo.NumUltrapeers()
	if got := lib.MatchAt(other, []string{"madonna"}); got != nil {
		t.Errorf("foreign ultrapeer matched %v", got)
	}
}

func TestLibraryCountsAndBrowse(t *testing.T) {
	topo := smallTopo(t)
	lib := libWith(t, topo, map[HostID][]string{
		201: {"a b.mp3", "c d.mp3"},
		202: {"a b.mp3"},
	})
	if lib.NumFiles() != 3 {
		t.Errorf("NumFiles = %d", lib.NumFiles())
	}
	if got := lib.Files(201); len(got) != 2 {
		t.Errorf("BrowseHost(201) = %d files", len(got))
	}
	rc := lib.ReplicaCount()
	if rc["a b.mp3"] != 2 || rc["c d.mp3"] != 1 {
		t.Errorf("ReplicaCount = %v", rc)
	}
}

func TestQRPSuppressesNonMatchingLeaves(t *testing.T) {
	topo := smallTopo(t)
	leaf := 200
	u := topo.UltrapeerOf(leaf)
	lib := libWith(t, topo, map[HostID][]string{leaf: {"unique filename.mp3"}})
	qrp, bytes := lib.BuildQRP(1024, 3)
	if bytes <= 0 {
		t.Fatal("QRP build shipped no bytes")
	}
	if !qrp.Admits(u, leaf, []string{"unique"}) {
		t.Error("QRP rejected a term the leaf shares (false negative)")
	}
	if qrp.Admits(u, leaf, []string{"definitely-not-there-xyz"}) {
		t.Error("QRP admitted an absent term (statistically near-impossible at this size)")
	}
}

func TestBFSAndReach(t *testing.T) {
	topo := smallTopo(t)
	depth := BFSDepths(topo, 0)
	if depth[0] != 0 {
		t.Error("src depth != 0")
	}
	for _, v := range topo.UPAdj[0] {
		if depth[v] != 1 {
			t.Errorf("neighbour depth = %d", depth[v])
		}
	}
	r1 := ReachSet(topo, 0, 1)
	if len(r1) != 1+len(topo.UPAdj[0]) {
		t.Errorf("reach(1) = %d, want %d", len(r1), 1+len(topo.UPAdj[0]))
	}
	rAll := ReachSet(topo, 0, 100)
	if len(rAll) != topo.NumUltrapeers() {
		t.Errorf("reach(inf) = %d", len(rAll))
	}
}

func TestFloodCostsMonotoneAndDiminishing(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{Ultrapeers: 2000, Hosts: 10000, NewClientFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	costs := FloodCosts(topo, 0, 8)
	for i := 1; i < len(costs); i++ {
		if costs[i].Messages < costs[i-1].Messages || costs[i].Visited < costs[i-1].Visited {
			t.Fatalf("flood costs not monotone: %+v -> %+v", costs[i-1], costs[i])
		}
	}
	// Diminishing returns (Figure 8): messages-per-new-node grows with TTL.
	type rate struct{ perNode float64 }
	var early, late rate
	if costs[1].Visited > costs[0].Visited {
		early.perNode = float64(costs[1].Messages-costs[0].Messages) / float64(costs[1].Visited-costs[0].Visited)
	}
	last := len(costs) - 1
	prev := last - 1
	if costs[last].Visited > costs[prev].Visited {
		late.perNode = float64(costs[last].Messages-costs[prev].Messages) / float64(costs[last].Visited-costs[prev].Visited)
		if late.perNode <= early.perNode {
			t.Errorf("no diminishing returns: early %.2f, late %.2f msgs/new node", early.perNode, late.perNode)
		}
	}
}

func TestHorizonForFraction(t *testing.T) {
	topo := smallTopo(t)
	ttl, reach := HorizonForFraction(topo, 0, 0.3)
	frac := float64(len(reach)) / float64(topo.NumUltrapeers())
	if frac < 0.3 {
		t.Errorf("horizon frac = %.2f < 0.3", frac)
	}
	if ttl <= 0 {
		t.Errorf("ttl = %d", ttl)
	}
	// Smaller fraction never needs a larger TTL.
	ttlSmall, _ := HorizonForFraction(topo, 0, 0.05)
	if ttlSmall > ttl {
		t.Errorf("ttl(5%%)=%d > ttl(30%%)=%d", ttlSmall, ttl)
	}
}

func TestFirstMatchDepth(t *testing.T) {
	topo := smallTopo(t)
	// Put the file at a known ultrapeer, measure depth from vantage 0.
	target := topo.UPAdj[0][0] // depth-1 neighbour
	lib := libWith(t, topo, map[HostID][]string{target: {"needle in haystack.mp3"}})
	if d := FirstMatchDepth(topo, lib, 0, []string{"needle"}); d != 1 {
		t.Errorf("FirstMatchDepth = %d, want 1", d)
	}
	if d := FirstMatchDepth(topo, lib, 0, []string{"absent"}); d != -1 {
		t.Errorf("FirstMatchDepth(absent) = %d, want -1", d)
	}
	if d := FirstMatchDepth(topo, lib, target, []string{"needle"}); d != 0 {
		t.Errorf("FirstMatchDepth(self) = %d, want 0", d)
	}
}

func TestEventQueryFindsNearbyFile(t *testing.T) {
	topo := smallTopo(t)
	target := topo.UPAdj[0][0]
	lib := libWith(t, topo, map[HostID][]string{target: {"rare gem demo.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: false, MaxTTL: 3, Seed: 4})
	q := net.Query(0, []string{"rare", "gem"})
	net.Clock.Drain()
	if len(q.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(q.Results))
	}
	lat := q.FirstResultLatency()
	// One hop out, one hop back: 2 x [1.25s, 2.25s].
	if lat < 2500*time.Millisecond || lat > 4500*time.Millisecond {
		t.Errorf("first-result latency = %v, want ~2.5-4.5s", lat)
	}
	if q.Messages == 0 {
		t.Error("no messages recorded")
	}
}

func TestEventQueryRespectsTTLHorizon(t *testing.T) {
	topo := smallTopo(t)
	depth := BFSDepths(topo, 0)
	far := -1
	for u, d := range depth {
		if d == 4 {
			far = u
			break
		}
	}
	if far == -1 {
		t.Skip("no depth-4 ultrapeer in this topology")
	}
	lib := libWith(t, topo, map[HostID][]string{far: {"distant star.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: false, MaxTTL: 2, Seed: 4})
	q := net.Query(0, []string{"distant"})
	net.Clock.Drain()
	if len(q.Results) != 0 {
		t.Errorf("TTL-2 flood reached a depth-4 host: %d results", len(q.Results))
	}
}

func TestDynamicQueryDeepensUntilFound(t *testing.T) {
	topo := smallTopo(t)
	depth := BFSDepths(topo, 0)
	far := -1
	for u, d := range depth {
		if d == 3 {
			far = u
			break
		}
	}
	if far == -1 {
		t.Skip("no depth-3 ultrapeer")
	}
	lib := libWith(t, topo, map[HostID][]string{far: {"deep rarity.mp3"}})
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: true, MaxTTL: 5, Seed: 4})
	q := net.Query(0, []string{"deep", "rarity"})
	net.Clock.Drain()
	if len(q.Results) != 1 {
		t.Fatalf("dynamic query found %d results", len(q.Results))
	}
	if q.Rounds < 3 {
		t.Errorf("rounds = %d, want >= 3 (deepening)", q.Rounds)
	}
	// Latency must include the inter-round waits: >= 2 rounds of waiting.
	if lat := q.FirstResultLatency(); lat < 24*time.Second {
		t.Errorf("deep rare item latency = %v, want >= 24s", lat)
	}
}

func TestDynamicQueryStopsWhenSatisfied(t *testing.T) {
	topo := smallTopo(t)
	files := map[HostID][]string{0: {}}
	// Saturate depth 0/1 with matches so round 1 satisfies the query.
	files[0] = append(files[0], "popular hit.mp3")
	for i, v := range topo.UPAdj[0] {
		files[v] = []string{fmt.Sprintf("popular hit copy%d.mp3", i)}
	}
	lib := libWith(t, topo, files)
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: true, MaxTTL: 5, DesiredResults: 3, Seed: 4})
	q := net.Query(0, []string{"popular", "hit"})
	net.Clock.Drain()
	if q.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (satisfied early)", q.Rounds)
	}
	if len(q.Results) < 3 {
		t.Errorf("results = %d", len(q.Results))
	}
}

func TestPopularFasterThanRare(t *testing.T) {
	// The §4.2 contrast: popular items answer in seconds, rare items in
	// tens of seconds under dynamic querying.
	topo := smallTopo(t)
	depth := BFSDepths(topo, 0)
	far := -1
	for u, d := range depth {
		if d >= 4 {
			far = u
			break
		}
	}
	if far == -1 {
		t.Skip("no deep ultrapeer")
	}
	files := map[HostID][]string{far: {"obscure bside.mp3"}}
	for _, v := range topo.UPAdj[0] {
		files[v] = append(files[v], "popular anthem.mp3")
	}
	lib := libWith(t, topo, files)
	net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: true, Seed: 4})

	popular := net.Query(0, []string{"popular", "anthem"})
	rare := net.Query(0, []string{"obscure", "bside"})
	net.Clock.Drain()

	pl, rl := popular.FirstResultLatency(), rare.FirstResultLatency()
	if pl < 0 || rl < 0 {
		t.Fatalf("latencies: popular %v rare %v", pl, rl)
	}
	if pl >= rl {
		t.Errorf("popular %v not faster than rare %v", pl, rl)
	}
	if rl < 30*time.Second {
		t.Errorf("rare latency %v, want tens of seconds", rl)
	}
}

func TestCrawl(t *testing.T) {
	topo := smallTopo(t)
	res := Crawl(topo, CrawlConfig{Seeds: []HostID{0, 50, 100}, RespondProb: 1, Seed: 9})
	if res.UltrapeersSeen != topo.NumUltrapeers() {
		t.Errorf("crawl saw %d ultrapeers, want %d", res.UltrapeersSeen, topo.NumUltrapeers())
	}
	if res.LeavesSeen != topo.NumHosts()-topo.NumUltrapeers() {
		t.Errorf("crawl saw %d leaves, want %d", res.LeavesSeen, topo.NumHosts()-topo.NumUltrapeers())
	}
	if res.EstimatedDuration <= 0 {
		t.Error("no duration estimate")
	}
}

func TestCrawlPartialResponseIsLowerBound(t *testing.T) {
	topo := smallTopo(t)
	full := Crawl(topo, CrawlConfig{Seeds: []HostID{0}, RespondProb: 1, Seed: 9})
	partial := Crawl(topo, CrawlConfig{Seeds: []HostID{0}, RespondProb: 0.5, Seed: 9})
	if partial.HostsSeen() > full.HostsSeen() {
		t.Errorf("partial crawl saw more hosts (%d) than full (%d)", partial.HostsSeen(), full.HostsSeen())
	}
	if partial.UltrapeersResponded >= full.UltrapeersResponded {
		t.Errorf("partial crawl responses %d >= full %d", partial.UltrapeersResponded, full.UltrapeersResponded)
	}
}

func BenchmarkFloodCosts(b *testing.B) {
	topo, err := NewTopology(TopologyConfig{Ultrapeers: 5000, Hosts: 25000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FloodCosts(topo, i%5000, 8)
	}
}

func BenchmarkEventQuery(b *testing.B) {
	topo, err := NewTopology(TopologyConfig{Ultrapeers: 300, Hosts: 1500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lib := NewLibrary(topo, piersearch.Tokenizer{})
	for h := 0; h < topo.NumHosts(); h++ {
		lib.AddFile(h, SharedFile{Name: fmt.Sprintf("artist%d track%d.mp3", h%40, h), Size: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: false, MaxTTL: 3, Seed: int64(i)})
		q := net.Query(i%300, []string{fmt.Sprintf("artist%d", i%40)})
		net.Clock.Drain()
		_ = q.Results
	}
}
