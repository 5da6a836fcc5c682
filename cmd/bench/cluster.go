package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/dht/routing"
	"piersearch/internal/hotcache"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/service"
	"piersearch/internal/store"
	"piersearch/internal/telemetry"
	"piersearch/internal/wire"
)

// The daemon defaults of cmd/piersearch (-cache-bytes, -cache-ttl): the
// benchmark measures the tier as a deployed node runs it.
const (
	tierBytes = 32 << 20
	tierTTL   = 30 * time.Second
)

// clusterConfig describes one system under test.
type clusterConfig struct {
	ids  []dht.ID // one node each; seeded, see nodeIDs
	disk bool     // store.Open per node (Sync off) instead of the mem store
	dir  string   // parent of the per-node disk-store directories
	// reg is attached to every layer's Metrics field in traced runs; nil
	// in the untraced runs the end-to-end metrics come from.
	reg *telemetry.Registry
}

// member is one node of the cluster, wired from the same pieces
// cmd/piersearch's runDaemon wires.
type member struct {
	node      *dht.Node
	transport *wire.TCPTransport
	server    *wire.Server
	engine    *pier.Engine
	tier      *hotcache.Tier
	disk      *store.Disk // nil on the mem store
}

// cluster is the system under test: cfg.nodes DHT nodes on loopback TCP,
// node 0 also serving the query-service protocol.
type cluster struct {
	cfg     clusterConfig
	members []*member
	svc     *service.Server
	search  *piersearch.Search    // node 0's, for the in-process passes
	pub     *piersearch.Publisher // node 0's
}

func newTier() *hotcache.Tier {
	return hotcache.NewTier(hotcache.Options{MaxBytes: tierBytes, TTL: tierTTL})
}

// nodeIDs derives n node IDs from seed, never from dht.RandomID: key
// placement, bucket contents and so every message count must repeat for a
// seed.
func nodeIDs(seed int64, n int) []dht.ID {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]dht.ID, n)
	for i := range ids {
		ids[i] = routing.SeededID(rng)
	}
	return ids
}

// buildCluster starts one node per ID and joins each through node 0.
func buildCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{cfg: cfg}
	for i, id := range cfg.ids {
		m, err := c.startMember(id)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.members = append(c.members, m)
		if i > 0 {
			if err := m.node.JoinNetwork([]dht.NodeInfo{{Addr: c.members[0].node.Info().Addr}}); err != nil {
				c.close()
				return nil, fmt.Errorf("node %d: %w", i, err)
			}
		}
	}

	first := c.members[0]
	c.search = piersearch.NewSearch(first.engine, piersearch.Tokenizer{})
	c.pub = piersearch.NewPublisher(first.engine, piersearch.ModeBoth, piersearch.Tokenizer{})
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, fmt.Errorf("service listen: %w", err)
	}
	c.svc = service.NewServer(ln, c.search, c.pub, service.Options{Metrics: cfg.reg})
	go c.svc.Serve() //nolint:errcheck // ended by close
	return c, nil
}

func (c *cluster) startMember(id dht.ID) (*member, error) {
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &member{transport: wire.NewTCPTransport()}
	cfg := dht.Config{Metrics: c.cfg.reg}
	if c.cfg.disk {
		dir := filepath.Join(c.cfg.dir, id.String())
		m.disk, err = store.Open(dir, store.Options{Metrics: c.cfg.reg})
		if err != nil {
			ln.Close()
			return nil, err
		}
		cfg.NewStorage = func(dht.NodeInfo) (dht.Storage, error) { return m.disk, nil }
	}
	m.node = dht.NewNode(dht.NodeInfo{ID: id, Addr: ln.Addr().String()}, m.transport, cfg)
	m.server = wire.NewServer(m.node, ln)
	go m.server.Serve() //nolint:errcheck // ended by close
	m.engine = pier.NewEngine(m.node, pier.Config{OrderBySelectivity: true})
	piersearch.RegisterSchemas(m.engine)
	m.tier = newTier()
	m.tier.RegisterMetrics(c.cfg.reg)
	m.engine.SetHotTier(m.tier)
	return m, nil
}

// freshTiers replaces every node's hot tier with an empty one, so a pass
// that must start cold does.
func (c *cluster) freshTiers() {
	for _, m := range c.members {
		m.tier = newTier()
		m.engine.SetHotTier(m.tier)
	}
}

// close stops serving and calling first, then closes the stores, then
// removes the disk stores' directories.
func (c *cluster) close() {
	if c.svc != nil {
		c.svc.Close()
	}
	for _, m := range c.members {
		m.server.Close()
	}
	for _, m := range c.members {
		m.transport.Close()
	}
	for _, m := range c.members {
		m.node.Close() //nolint:errcheck // teardown of a scratch store
	}
	if c.cfg.disk {
		os.RemoveAll(c.cfg.dir) //nolint:errcheck // scratch directory
	}
}

// placedValue is one stored value of the corpus, ready to put.
type placedValue struct {
	key       dht.ID
	data      []byte
	publisher dht.ID
}

// placement computes, per node, the values direct placement stores there:
// every index tuple of the corpus on the Replicate XOR-closest nodes, as
// scale.Run's load phase places them. Unlike Node.LocalPut, each value
// carries one publisher for all its replicas — what a real publish leaves
// behind. LocalPut stamps each replica with its own ID, and a FindValue
// then merges the three copies into three results.
func placement(corp *corpus, ids []dht.ID) ([][]placedValue, error) {
	replicate := dht.Config{}.Normalize().Replicate
	perNode := make([][]placedValue, len(ids))
	infos := make([]dht.NodeInfo, len(ids))
	index := make(map[dht.ID]int, len(ids))
	for i, id := range ids {
		infos[i], index[id] = dht.NodeInfo{ID: id}, i
	}
	for _, inst := range corp.instances {
		publisher := ids[inst.host%len(ids)]
		for _, pub := range piersearch.IndexTuples(inst.file, inst.tokens, piersearch.ModeBoth) {
			key, err := schemaOf(pub.Table).IndexKey(pub.Tuple)
			if err != nil {
				return nil, err
			}
			v := placedValue{key: dht.NamespacedID(pub.Table, key), data: pub.Tuple.Encode(nil), publisher: publisher}
			for _, owner := range routing.SortByDistance(infos, v.key)[:min(replicate, len(infos))] {
				perNode[index[owner.ID]] = append(perNode[index[owner.ID]], v)
			}
			corp.tuples++
		}
	}
	return perNode, nil
}

// place stores the placement, all nodes at once and each node's values in
// corpus order: no traffic, and the disk stores' group commits fill.
func (c *cluster) place(perNode [][]placedValue) {
	var wg sync.WaitGroup
	for i, values := range perNode {
		wg.Add(1)
		go func(n *dht.Node, values []placedValue) {
			defer wg.Done()
			for _, v := range values {
				n.Storage().Put(v.key, dht.StoredValue{Data: v.data, Publisher: v.publisher, StoredAt: n.Config().Clock()})
			}
		}(c.members[i].node, values)
	}
	wg.Wait()
}

func schemaOf(table string) *pier.Schema {
	switch table {
	case piersearch.TableItem:
		return piersearch.ItemSchema
	case piersearch.TableInverted:
		return piersearch.InvertedSchema
	default:
		return piersearch.InvertedCacheSchema
	}
}
