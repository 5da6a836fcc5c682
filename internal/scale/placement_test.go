package scale_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"piersearch/internal/dht"
	"piersearch/internal/scale"
	"piersearch/internal/simnet"
)

// placementAgreement builds a cluster with join-complete routing tables,
// detaches downFrac of the nodes outside the first core, and resolves keys
// one after another from core origins through resolve, which returns the
// nodes it picked for the key's replicas. It returns on how many keys that
// pick was exactly the Replicate XOR-closest live nodes (the origin aside)
// per scale.Cluster.Closest, and the messages spent.
func placementAgreement(t *testing.T, nodes, core int, keys []dht.ID, downFrac float64,
	resolve func(cl *scale.Cluster, origin *dht.Node, key dht.ID) map[string]bool) (agree int, msgs uint64) {
	t.Helper()
	clock := simnet.NewClock()
	cl, err := scale.NewCluster(nodes, 5, clock, nil, dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Give every node its K nearest neighbours, the state a Kademlia join's
	// self-lookup leaves behind and the one the narrow lookup relies on: a
	// node next to the key knows the others next to it. NewCluster's
	// zero-RPC warm-up alone leaves one contact per sibling subtree (11
	// contacts a node at 2 000 nodes), and on those tables, with a fifth of
	// the nodes detached, only a lookup probing all K recovers the exact
	// closest set: 497/500 keys against 463/500 at width Replicate, 486 at
	// Replicate+4, 494 at Replicate+12.
	for _, n := range cl.Nodes {
		for _, nb := range cl.Closest(n.Info().ID, n.Config().K+1) {
			if nb != n {
				n.SeedContact(nb.Info())
			}
		}
	}
	rng := rand.New(rand.NewSource(6))
	down := make(map[string]bool)
	for _, n := range cl.Nodes[core:] {
		if rng.Float64() < downFrac {
			cl.Net.Detach(n.Info().Addr)
			down[n.Info().Addr] = true
		}
	}
	replicate := cl.Nodes[0].Config().Replicate
	err = clock.Run(func() {
		for i, key := range keys {
			origin := cl.Nodes[i%core]
			got := resolve(cl, origin, key)
			want := 0
			// Far more than Replicate of the true closest, so enough live
			// ones remain after dropping the detached and the origin.
			for _, n := range cl.Closest(key, 16*replicate) {
				if n == origin || down[n.Info().Addr] {
					continue
				}
				if !got[n.Info().Addr] {
					break
				}
				if want++; want == replicate {
					break
				}
			}
			if want == replicate && len(got) == replicate {
				agree++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return agree, cl.Net.Messages()
}

// TestNarrowPutPlacementMatchesWideLookup holds the put path's narrow
// lookup (it converges on the Replicate closest, not all K) to the
// placement a full K-wide lookup finds on identical clusters and keys,
// with every node up and with a fifth of them detached and still in
// everyone's routing tables.
func TestNarrowPutPlacementMatchesWideLookup(t *testing.T) {
	nodes, nkeys := 2000, 500
	if raceEnabled {
		nodes, nkeys = 600, 120
	}
	const core = 50
	rng := rand.New(rand.NewSource(77))
	keys := make([]dht.ID, nkeys)
	for i := range keys {
		keys[i] = dht.SeededID(rng)
	}

	// The wide pick: the head of a K-wide FindNode lookup.
	wide := func(cl *scale.Cluster, origin *dht.Node, key dht.ID) map[string]bool {
		closest, _, err := origin.LookupContext(context.Background(), key)
		if err != nil {
			t.Errorf("lookup %s: %v", key.Short(), err)
			return nil
		}
		got := map[string]bool{}
		for _, c := range closest[:min(len(closest), origin.Config().Replicate)] {
			got[c.Addr] = true
		}
		return got
	}
	// The narrow pick: wherever a put left its replicas.
	narrow := func(cl *scale.Cluster, origin *dht.Node, key dht.ID) map[string]bool {
		if _, err := origin.PutIDContext(context.Background(), key, []byte("v")); err != nil {
			t.Errorf("put %s: %v", key.Short(), err)
			return nil
		}
		got := map[string]bool{}
		for _, n := range cl.Nodes {
			if n != origin && len(n.LocalGet(key)) > 0 {
				got[n.Info().Addr] = true
			}
		}
		return got
	}

	for _, down := range []float64{0, 0.20} {
		t.Run(fmt.Sprintf("down=%.0f%%", down*100), func(t *testing.T) {
			wideAgree, wideMsgs := placementAgreement(t, nodes, core, keys, down, wide)
			narrowAgree, narrowMsgs := placementAgreement(t, nodes, core, keys, down, narrow)
			t.Logf("%d nodes, %d keys: wide lookup %d/%d exact at %.1f msgs/key; narrow put %d/%d at %.1f msgs/key",
				nodes, nkeys, wideAgree, nkeys, float64(wideMsgs)/float64(nkeys),
				narrowAgree, nkeys, float64(narrowMsgs)/float64(nkeys))
			if narrowAgree < wideAgree {
				t.Errorf("narrow put placed %d/%d keys on the true closest, wide lookup %d/%d",
					narrowAgree, nkeys, wideAgree, nkeys)
			}
			if down == 0 && narrowAgree != nkeys {
				t.Errorf("all nodes up: narrow put missed the true closest on %d keys", nkeys-narrowAgree)
			}
			if narrowMsgs >= wideMsgs {
				t.Errorf("narrow put cost %d msgs, wide lookup %d", narrowMsgs, wideMsgs)
			}
		})
	}
}
