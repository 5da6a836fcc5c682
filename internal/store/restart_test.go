package store

import (
	"context"
	"fmt"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/simnet"
)

// Integration coverage: a store.Disk-backed node must be a drop-in behind
// the dht.Storage interface — the full publish/query pipeline runs
// unchanged over disk-backed clusters, and a replica holder that crashes
// and reopens from disk answers queries without anyone republishing.

func diskEngines(t *testing.T, nodes []*dht.Node) []*pier.Engine {
	t.Helper()
	engines := make([]*pier.Engine, 0, len(nodes))
	for _, n := range nodes {
		e := pier.NewEngine(n, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(e)
		engines = append(engines, e)
	}
	return engines
}

func TestDiskBackedClusterRunsPierPipeline(t *testing.T) {
	cluster, err := dht.NewCluster(24, 7, dht.Config{
		NewStorage: DiskFactory(t.TempDir(), Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	engines := diskEngines(t, cluster.Nodes)

	pub := piersearch.NewPublisher(engines[0], piersearch.ModeBoth, piersearch.Tokenizer{})
	for i := 0; i < 8; i++ {
		f := piersearch.File{Name: fmt.Sprintf("durable gem %02d.mp3", i), Size: 1000, Host: "h", Port: 1}
		if _, err := pub.PublishFile(f); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	got, _, err := engines[5].ChainJoinConcurrentContext(context.Background(), piersearch.TableInverted,
		[]pier.Value{pier.String("durable"), pier.String("gem")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("chain join over disk-backed cluster = %d results, want 8", len(got))
	}
	tuples, _, err := engines[9].CacheSelectContext(context.Background(), piersearch.TableInvertedCache,
		pier.String("durable"), []string{"gem"}, "fulltext", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 8 {
		t.Fatalf("cache select over disk-backed cluster = %d results, want 8", len(tuples))
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("cluster close: %v", err)
	}
}

func TestReplicaRestartAnswersChainJoinWithoutRepublish(t *testing.T) {
	// Churn + restart over wall-clock link latency: crash every node
	// holding a posting list for the query's keywords, restart ONE of them
	// from its on-disk state, and the chain join must still find the file
	// — served purely from recovered replicas, with no republish in
	// between.
	baseDir := t.TempDir()
	factory := DiskFactory(baseDir, Options{})
	cfg := dht.Config{NewStorage: factory}
	c, err := dht.NewCluster(14, 11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.SetLatency(simnet.Constant(200 * time.Microsecond))
	nodes := c.Nodes
	engines := diskEngines(t, nodes)
	defer func() {
		for _, n := range nodes {
			n.Close() //nolint:errcheck // best-effort cleanup
		}
	}()

	pub := piersearch.NewPublisher(engines[0], piersearch.ModeBoth, piersearch.Tokenizer{})
	if _, err := pub.PublishFile(piersearch.File{Name: "restartable gem.mp3", Size: 42, Host: "h", Port: 1}); err != nil {
		t.Fatal(err)
	}

	// Every node holding either keyword's posting list is a replica.
	keys := []dht.ID{
		dht.NamespacedID(piersearch.TableInverted, pier.String("restartable").Key()),
		dht.NamespacedID(piersearch.TableInverted, pier.String("gem").Key()),
	}
	holder := map[int]bool{}
	for i, n := range nodes {
		for _, k := range keys {
			if len(n.Storage().Get(k, 0)) > 0 {
				holder[i] = true
			}
		}
	}
	if len(holder) == 0 {
		t.Fatal("no replica holders found")
	}

	// Crash every holder (unclean: no flush, no seal).
	for i := range holder {
		c.Net.Remove(nodes[i].Info().Addr)
		nodes[i].Storage().(*Disk).Crash()
	}
	var alive *dht.Node
	var queryEngine *pier.Engine
	for i, n := range nodes {
		if !holder[i] {
			alive = n
			queryEngine = engines[i]
			break
		}
	}
	if alive == nil {
		t.Skip("every node held a replica; nothing left to query from")
	}

	// With every holder gone, the join must come up empty.
	got, _, err := queryEngine.ChainJoinConcurrentContext(context.Background(), piersearch.TableInverted,
		[]pier.Value{pier.String("restartable"), pier.String("gem")}, "fileID", 0)
	if err == nil && len(got) != 0 {
		t.Fatalf("join with all holders down returned %d results, want 0", len(got))
	}

	// Restart the holders from disk: same identities, same directories,
	// fresh nodes and engines. The factory reopens each recovered store.
	recovered := 0
	for i := range holder {
		reborn := dht.NewNode(nodes[i].Info(), c.Net, cfg) // same factory → same dir
		c.Net.Join(reborn)
		rebornEngine := pier.NewEngine(reborn, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(rebornEngine)
		if err := reborn.JoinNetwork([]dht.NodeInfo{alive.Info()}); err != nil {
			t.Fatal(err)
		}
		recovered += reborn.Storage().(*Disk).Recovery().Values
		nodes[i] = reborn
		engines[i] = rebornEngine
	}
	if recovered == 0 {
		t.Fatal("restarted nodes recovered nothing from disk")
	}

	// No republish happened; the recovered replicas must answer. Retry
	// briefly: routing tables settle as the reborn nodes are observed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _, err = queryEngine.ChainJoinConcurrentContext(context.Background(), piersearch.TableInverted,
			[]pier.Value{pier.String("restartable"), pier.String("gem")}, "fileID", 0)
		if err == nil && len(got) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join after restart: got %d results, err=%v", len(got), err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
