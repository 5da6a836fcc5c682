package dht

import (
	"context"
	"fmt"
	"testing"
)

func testCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(n, 42, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterBootstrapPopulatesTables(t *testing.T) {
	c := testCluster(t, 32)
	for i, n := range c.Nodes {
		if n.TableLen() < 8 {
			t.Errorf("node %d table has only %d contacts", i, n.TableLen())
		}
	}
}

func TestPutGetSingleValue(t *testing.T) {
	c := testCluster(t, 32)
	if _, err := c.Nodes[3].PutContext(context.Background(), "ns", "hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	values, _, err := c.Nodes[20].GetContext(context.Background(), "ns", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || string(values[0].Data) != "world" {
		t.Fatalf("Get = %v, want one value 'world'", values)
	}
}

func TestGetMissingKeyReturnsEmpty(t *testing.T) {
	c := testCluster(t, 16)
	values, _, err := c.Nodes[0].GetContext(context.Background(), "ns", "absent")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 0 {
		t.Fatalf("Get(absent) = %v, want empty", values)
	}
}

func TestMultiValueAccumulation(t *testing.T) {
	// Posting lists: many publishers store distinct values under one key,
	// and a reader sees the union.
	c := testCluster(t, 32)
	const publishers = 10
	for i := 0; i < publishers; i++ {
		data := []byte(fmt.Sprintf("file-%d", i))
		if _, err := c.Nodes[i].PutContext(context.Background(), "Inverted", "madonna", data); err != nil {
			t.Fatal(err)
		}
	}
	values, _, err := c.Nodes[30].GetContext(context.Background(), "Inverted", "madonna")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, v := range values {
		seen[string(v.Data)] = true
	}
	if len(seen) != publishers {
		t.Fatalf("got %d distinct values, want %d", len(seen), publishers)
	}
}

func TestRepublishSamePayloadDoesNotDuplicate(t *testing.T) {
	c := testCluster(t, 24)
	for i := 0; i < 3; i++ {
		if _, err := c.Nodes[1].PutContext(context.Background(), "ns", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	values, _, err := c.Nodes[9].GetContext(context.Background(), "ns", "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 {
		t.Fatalf("got %d values after triple publish, want 1", len(values))
	}
}

func TestLookupFindsGlobalClosest(t *testing.T) {
	c := testCluster(t, 64)
	target := StringID("some target key")
	// Globally closest node, by brute force.
	best := c.Nodes[0].Info()
	for _, n := range c.Nodes[1:] {
		if Closer(n.Info().ID, best.ID, target) {
			best = n.Info()
		}
	}
	got, stats, err := c.Nodes[5].LookupContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("empty lookup result")
	}
	found := got[0].ID == best.ID
	if c.Nodes[5].Info().ID == best.ID {
		found = true // the caller itself is closest; Lookup returns peers
	}
	if !found {
		t.Errorf("lookup nearest = %s, want global closest %s", got[0].ID.Short(), best.ID.Short())
	}
	if stats.Messages == 0 || stats.Hops == 0 {
		t.Error("lookup reported zero traffic")
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	c := testCluster(t, 128)
	maxHops := 0
	for i := 0; i < 20; i++ {
		_, stats, err := c.RandomNode().LookupContext(context.Background(), StringID(fmt.Sprintf("key-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Hops > maxHops {
			maxHops = stats.Hops
		}
	}
	// log2(128) = 7; allow slack for α-batching and convergence rounds.
	if maxHops > 12 {
		t.Errorf("max lookup hops = %d, want O(log N) <= 12", maxHops)
	}
}

func TestOwnerIsClosestLiveNode(t *testing.T) {
	c := testCluster(t, 32)
	key := StringID("ownership")
	owner, _, err := c.Nodes[7].OwnerContext(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.Info().ID != owner.ID && Closer(n.Info().ID, owner.ID, key) {
			t.Fatalf("node %s closer to key than reported owner %s", n.Info().ID.Short(), owner.ID.Short())
		}
	}
}

func TestAppMessageRouting(t *testing.T) {
	c := testCluster(t, 32)
	key := StringID("app-key")
	var ownerIdx int
	for i, n := range c.Nodes {
		n.RegisterApp("echo", func(from NodeInfo, data []byte) []byte {
			return append([]byte("reply:"), data...)
		})
		owner, _, _ := c.Nodes[0].OwnerContext(context.Background(), key)
		if n.Info().ID == owner.ID {
			ownerIdx = i
		}
	}
	reply, _, err := c.Nodes[1].SendContext(context.Background(), key, "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "reply:ping" {
		t.Errorf("reply = %q", reply)
	}
	_ = ownerIdx
}

func TestSendToUnknownHandlerFails(t *testing.T) {
	c := testCluster(t, 8)
	_, _, err := c.Nodes[0].SendToContext(context.Background(), c.Nodes[1].Info(), "nope", nil)
	if err == nil {
		t.Error("Send to unregistered handler succeeded")
	}
}

func TestValueSurvivesReplicaFailure(t *testing.T) {
	c, err := NewCluster(48, 7, Config{Replicate: 4})
	if err != nil {
		t.Fatal(err)
	}
	key := NamespacedID("ns", "durable")
	if _, err := c.Nodes[0].PutIDContext(context.Background(), key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Kill the single closest holder.
	closest, _, err := c.Nodes[0].LookupContext(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		if n.Info().ID == closest[0].ID {
			c.RemoveNode(i)
			break
		}
	}
	values, _, err := c.Nodes[1].GetIDContext(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 {
		t.Fatalf("value lost after replica failure: got %d values", len(values))
	}
}

func TestChurnJoinServesExistingKeys(t *testing.T) {
	c := testCluster(t, 24)
	if _, err := c.Nodes[0].PutContext(context.Background(), "ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	n, err := c.AddNode(Config{})
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := n.GetContext(context.Background(), "ns", "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || string(values[0].Data) != "v" {
		t.Fatalf("new node Get = %v", values)
	}
}

func TestRepublishRestoresReplication(t *testing.T) {
	c, err := NewCluster(48, 11, Config{Replicate: 3})
	if err != nil {
		t.Fatal(err)
	}
	pub := c.Nodes[0]
	if _, err := pub.PutContext(context.Background(), "ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Remove two of the closest holders, then republish from the origin.
	key := NamespacedID("ns", "k")
	closest, _, _ := pub.LookupContext(context.Background(), key)
	removed := 0
	for _, holder := range closest[:2] {
		for i, n := range c.Nodes {
			if n.Info().ID == holder.ID && n != pub {
				c.RemoveNode(i)
				removed++
				break
			}
		}
	}
	// The publisher also holds a copy iff it was among the closest; it can
	// always republish from its local store.
	pub.LocalPut(key, []byte("v"))
	count, _ := pub.Republish()
	if count == 0 {
		t.Fatal("Republish found nothing to republish")
	}
	values, _, err := c.Nodes[len(c.Nodes)-1].GetIDContext(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) == 0 {
		t.Fatal("value unavailable after republish")
	}
}

func TestFailureInjectionLookupStillConverges(t *testing.T) {
	c := testCluster(t, 64)
	c.Net.SetFailureProbability(0.15)
	ok := 0
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k-%d", i)
		if _, err := c.Nodes[i%len(c.Nodes)].PutContext(context.Background(), "ns", key, []byte("v")); err != nil {
			continue
		}
		values, _, err := c.Nodes[(i+31)%len(c.Nodes)].GetContext(context.Background(), "ns", key)
		if err == nil && len(values) > 0 {
			ok++
		}
	}
	if ok < 15 {
		t.Errorf("only %d/20 put-get pairs survived 15%% message loss", ok)
	}
}

func TestTrafficAccounting(t *testing.T) {
	c := testCluster(t, 16)
	before := c.Net.Stats()
	if _, err := c.Nodes[0].PutContext(context.Background(), "ns", "k", []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	d := c.Net.Stats().Sub(before)
	if d.Messages == 0 || d.Bytes == 0 {
		t.Error("no traffic recorded for Put")
	}
	if d.ByKind["store"].Messages == 0 || d.ByKind["store"].Bytes == 0 {
		t.Error("no store RPCs recorded for Put")
	}

	// The sender pays for a call to an unreachable node: two messages and
	// the request's bytes, as for any call.
	before = c.Net.Stats()
	req := &Request{Kind: RPCPing, From: c.Nodes[0].Info()}
	if _, err := c.Net.CallContext(context.Background(), NodeInfo{Addr: "nowhere"}, req); err == nil {
		t.Fatal("call to an unreachable node succeeded")
	}
	d = c.Net.Stats().Sub(before)
	if ping := d.ByKind["ping"]; d.Messages != 2 || d.Bytes != uint64(req.WireSize()) || ping.Messages != 2 || ping.Bytes != d.Bytes {
		t.Errorf("unreachable call charged %d msgs / %d bytes (ping %+v), want 2 / %d", d.Messages, d.Bytes, ping, req.WireSize())
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.K != 20 || c.Alpha != 3 || c.Replicate != 3 || c.Clock == nil {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{K: 8, Alpha: 2, Replicate: 1}.Normalize()
	if c2.K != 8 || c2.Alpha != 2 || c2.Replicate != 1 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

func TestNewClusterRejectsNonPositive(t *testing.T) {
	if _, err := NewCluster(0, 1, Config{}); err == nil {
		t.Error("NewCluster(0) succeeded")
	}
}

// holders returns the addresses of the cluster nodes, other than skip,
// whose own store holds a value under key.
func holders(c *Cluster, key ID, skip *Node) map[string]bool {
	out := map[string]bool{}
	for _, n := range c.Nodes {
		if n != skip && len(n.LocalGet(key)) > 0 {
			out[n.Info().Addr] = true
		}
	}
	return out
}

// remoteClosest ranks every cluster node but skip by distance to key: the
// ground truth a put's placement is judged against.
func remoteClosest(c *Cluster, key ID, skip *Node) []NodeInfo {
	var infos []NodeInfo
	for _, n := range c.Nodes {
		if n != skip {
			infos = append(infos, n.Info())
		}
	}
	return sortByDistance(infos, key)
}

// TestPutRoutesAroundDeadNearestContact: a put's lookup converges on the
// Replicate closest only, so the contact it would have picked first dying
// must slide that window, not cost a replica.
func TestPutRoutesAroundDeadNearestContact(t *testing.T) {
	c := testCluster(t, 48)
	pub := c.Nodes[3]
	replicate := pub.Config().Replicate
	for trial := 0; trial < 20; trial++ {
		key := StringID(fmt.Sprintf("dead-nearest-%d", trial))
		truth := remoteClosest(c, key, pub)
		// Crash the nearest node without telling anyone: it is still in
		// every routing table, the put's first probe to it fails.
		dead := truth[0]
		deadNode, _ := c.Net.Lookup(dead.Addr)
		c.Net.Remove(dead.Addr)

		stats, err := pub.PutIDContext(context.Background(), key, []byte("v"))
		if err != nil {
			t.Fatalf("trial %d: put: %v", trial, err)
		}
		got := holders(c, key, pub)
		delete(got, dead.Addr) // unreachable: whatever it holds is not a replica
		if len(got) != replicate {
			t.Fatalf("trial %d: %d replicas stored, want %d", trial, len(got), replicate)
		}
		for _, want := range truth[1 : 1+replicate] {
			if !got[want.Addr] {
				t.Errorf("trial %d: replica set %v misses %s, one of the %d closest live nodes",
					trial, got, want.Addr, replicate)
			}
		}
		if stats.Messages >= 2*pub.Config().K {
			t.Errorf("trial %d: put cost %d messages, a K-wide lookup's worth", trial, stats.Messages)
		}
		reader := c.Nodes[(trial+7)%len(c.Nodes)]
		if reader == pub || reader == deadNode {
			reader = c.Nodes[0]
		}
		values, _, err := reader.GetIDContext(context.Background(), key)
		if err != nil || len(values) != 1 || string(values[0].Data) != "v" {
			t.Fatalf("trial %d: GetID from %s = %v, %v", trial, reader.Info().Addr, values, err)
		}
		c.Net.Join(deadNode)
	}
}

// storeRefuser fails every STORE addressed to one node and passes all
// other traffic through: the node answers the lookup's probes, then turns
// out unable to take the value.
type storeRefuser struct {
	*LocalNetwork
	refuse string
}

func (r storeRefuser) CallContext(ctx context.Context, to NodeInfo, req *Request) (*Response, error) {
	if req.Kind == RPCStore && to.Addr == r.refuse {
		return nil, fmt.Errorf("store refused by %s", to.Addr)
	}
	return r.LocalNetwork.CallContext(ctx, to, req)
}

// TestPutFallsBackToUnprobedTail: when a verified replica fails at STORE
// time the put walks on into the part of the lookup result that was never
// probed, and still ends with Replicate copies.
func TestPutFallsBackToUnprobedTail(t *testing.T) {
	c := testCluster(t, 48)
	key := StringID("refused-store")
	truth := remoteClosest(c, key, nil)
	info := NodeInfo{ID: SeededID(c.rng), Addr: "publisher"}
	pub := NewNode(info, storeRefuser{c.Net, truth[1].Addr}, Config{})
	c.Net.Join(pub)
	if err := pub.JoinNetwork([]NodeInfo{c.Nodes[0].Info()}); err != nil {
		t.Fatal(err)
	}
	replicate := pub.Config().Replicate

	stats, err := pub.PutIDContext(context.Background(), key, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Fatalf("put recorded %d failed RPCs, want the one refused STORE", stats.Failed)
	}
	got := holders(c, key, nil)
	want := []NodeInfo{truth[0], truth[2], truth[3]}
	if len(got) != replicate {
		t.Fatalf("%d replicas stored, want %d", len(got), replicate)
	}
	for _, w := range want {
		if !got[w.Addr] {
			t.Errorf("replica set %v misses %s", got, w.Addr)
		}
	}
	values, _, err := c.Nodes[20].GetIDContext(context.Background(), key)
	if err != nil || len(values) != 1 {
		t.Fatalf("GetID = %v, %v", values, err)
	}
}

// reportMsgs publishes the mean message count per iteration, so the
// traffic cost of an operation reads off `go test -bench` next to ns/op.
func reportMsgs(b *testing.B, msgs int) {
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func BenchmarkLookup(b *testing.B) {
	c, err := NewCluster(128, 1, Config{})
	if err != nil {
		b.Fatal(err)
	}
	msgs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := c.Nodes[i%len(c.Nodes)].LookupContext(context.Background(), StringID(fmt.Sprintf("key-%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		msgs += stats.Messages
	}
	reportMsgs(b, msgs)
}

func BenchmarkPut(b *testing.B) {
	c, err := NewCluster(64, 1, Config{})
	if err != nil {
		b.Fatal(err)
	}
	msgs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := c.Nodes[i%len(c.Nodes)].PutContext(context.Background(), "bench", fmt.Sprintf("key-%d", i), []byte("value"))
		if err != nil {
			b.Fatal(err)
		}
		msgs += stats.Messages
	}
	reportMsgs(b, msgs)
}

func BenchmarkGet(b *testing.B) {
	c, err := NewCluster(64, 1, Config{})
	if err != nil {
		b.Fatal(err)
	}
	const keys = 256
	for i := 0; i < keys; i++ {
		if _, err := c.Nodes[i%len(c.Nodes)].PutContext(context.Background(), "bench", fmt.Sprintf("key-%d", i), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	msgs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		values, stats, err := c.Nodes[(i+13)%len(c.Nodes)].GetContext(context.Background(), "bench", fmt.Sprintf("key-%d", i%keys))
		if err != nil || len(values) != 1 {
			b.Fatalf("get: %d values, err %v", len(values), err)
		}
		msgs += stats.Messages
	}
	reportMsgs(b, msgs)
}
