package hybrid

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/gnutella"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
)

// deployEnv is a miniature of the §7 deployment: a Gnutella overlay where
// a subset of ultrapeers are hybrid clients sharing a DHT.
type deployEnv struct {
	topo    *gnutella.Topology
	lib     *gnutella.Library
	gnet    *gnutella.Network
	cluster *dht.Cluster
	hybrids []*Ultrapeer
}

func newDeployEnv(t testing.TB, ups, hosts, hybrids int, cfg UltrapeerConfig) *deployEnv {
	t.Helper()
	topo, err := gnutella.NewTopology(gnutella.TopologyConfig{
		Ultrapeers: ups, Hosts: hosts, NewClientFrac: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lib := gnutella.NewLibrary(topo, piersearch.Tokenizer{})
	gnet := gnutella.NewNetwork(topo, lib, gnutella.NetworkConfig{DynamicQuery: true, Seed: 5})
	cluster, err := dht.NewCluster(hybrids, 11, dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env := &deployEnv{topo: topo, lib: lib, gnet: gnet, cluster: cluster}
	for i := 0; i < hybrids; i++ {
		engine := pier.NewEngine(cluster.Nodes[i], pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engine)
		env.hybrids = append(env.hybrids, NewUltrapeer(gnutella.HostID(i), gnet, lib, engine, cfg))
	}
	return env
}

func TestHybridQueryAnsweredByGnutellaWhenPopular(t *testing.T) {
	env := newDeployEnv(t, 150, 600, 5, UltrapeerConfig{})
	// Popular file: copies near the querying ultrapeer.
	for _, v := range env.topo.UPAdj[0] {
		env.lib.AddFile(v, gnutella.SharedFile{Name: "everywhere anthem.mp3", Size: 1})
	}
	out, err := env.hybrids[0].QueryContext(context.Background(), "everywhere anthem", []string{"everywhere", "anthem"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceGnutella {
		t.Fatalf("source = %v, want gnutella", out.Source)
	}
	if out.FirstLatency <= 0 || out.FirstLatency > 30*time.Second {
		t.Errorf("latency = %v", out.FirstLatency)
	}
}

func TestHybridQueryFallsBackToPIER(t *testing.T) {
	env := newDeployEnv(t, 150, 600, 5, UltrapeerConfig{})
	// Rare file exists only outside any flooding horizon (not in the
	// overlay at all), but was published into the DHT by hybrid UP 1.
	rare := piersearch.File{Name: "hidden rarity bootleg.mp3", Size: 999, Host: "10.9.9.9", Port: 6346}
	if _, err := piersearch.NewPublisher(
		pierEngineOf(t, env, 1), piersearch.ModeInverted, piersearch.Tokenizer{},
	).PublishFile(rare); err != nil {
		t.Fatal(err)
	}
	out, err := env.hybrids[0].QueryContext(context.Background(), "hidden rarity", []string{"hidden", "rarity"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourcePIER {
		t.Fatalf("source = %v, want pier", out.Source)
	}
	if out.Results != 1 {
		t.Errorf("results = %d", out.Results)
	}
	// Latency = 30s timeout + PIER hops; must exceed the timeout but stay
	// well under the 65-73s Gnutella rare-item latency.
	if out.FirstLatency <= 30*time.Second || out.FirstLatency > 60*time.Second {
		t.Errorf("hybrid latency = %v, want (30s, 60s]", out.FirstLatency)
	}
}

// pierEngineOf builds a fresh engine on hybrid i's DHT node.
func pierEngineOf(t testing.TB, env *deployEnv, i int) *pier.Engine {
	t.Helper()
	e := pier.NewEngine(env.cluster.Nodes[i], pier.Config{})
	piersearch.RegisterSchemas(e)
	return e
}

func TestHybridQueryNoResultsAnywhere(t *testing.T) {
	env := newDeployEnv(t, 150, 600, 3, UltrapeerConfig{})
	out, err := env.hybrids[0].QueryContext(context.Background(), "absent entirely", []string{"absent", "entirely"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceNone || out.Results != 0 || out.FirstLatency != -1 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestObserveResultsPublishesOnlyRareSets(t *testing.T) {
	env := newDeployEnv(t, 150, 600, 3, UltrapeerConfig{RareResultsThreshold: 5})
	h := env.hybrids[0]
	leaf := env.topo.UPLeaves[0][0]

	var small []gnutella.FileRef
	for i := 0; i < 3; i++ {
		small = append(small, env.lib.AddFile(leaf, gnutella.SharedFile{Name: fmt.Sprintf("rare item %d.mp3", i), Size: 1}))
	}
	if err := h.ObserveResults(small); err != nil {
		t.Fatal(err)
	}
	if h.PublishCount != 3 {
		t.Errorf("published %d from small set, want 3", h.PublishCount)
	}
	if h.PublishBytes <= 0 {
		t.Error("no publish bytes recorded")
	}

	var large []gnutella.FileRef
	for i := 0; i < 10; i++ {
		large = append(large, env.lib.AddFile(leaf, gnutella.SharedFile{Name: fmt.Sprintf("popular item %d.mp3", i), Size: 1}))
	}
	if err := h.ObserveResults(large); err != nil {
		t.Fatal(err)
	}
	if h.PublishCount != 3 {
		t.Errorf("large result set triggered publishing: count = %d", h.PublishCount)
	}

	// Re-observing the same rare set must not double-publish.
	if err := h.ObserveResults(small); err != nil {
		t.Fatal(err)
	}
	if h.PublishCount != 3 {
		t.Errorf("duplicate observation re-published: count = %d", h.PublishCount)
	}
}

func TestPublishLocalIndexesWholeHost(t *testing.T) {
	env := newDeployEnv(t, 150, 600, 3, UltrapeerConfig{})
	leaf := env.topo.UPLeaves[0][0]
	for i := 0; i < 4; i++ {
		env.lib.AddFile(leaf, gnutella.SharedFile{Name: fmt.Sprintf("browse host file %d.mp3", i), Size: 1})
	}
	if err := env.hybrids[0].PublishLocal(leaf); err != nil {
		t.Fatal(err)
	}
	if env.hybrids[0].PublishCount != 4 {
		t.Errorf("published %d, want 4", env.hybrids[0].PublishCount)
	}
	// Published files are findable from another hybrid node.
	s := piersearch.NewSearch(pierEngineOf(t, env, 2), piersearch.Tokenizer{})
	results, _, err := s.Query("browse host", piersearch.StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Errorf("cross-node search found %d, want 4", len(results))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.File.Host, "10.") {
			t.Errorf("synthetic host %q", r.File.Host)
		}
	}
}

func TestSourceString(t *testing.T) {
	if SourceGnutella.String() != "gnutella" || SourcePIER.String() != "pier" || SourceNone.String() != "none" {
		t.Error("Source names wrong")
	}
}
