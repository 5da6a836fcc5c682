package dht

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// probeRecorder logs every RPC a node issues and, when wide is set, strips
// Want from each request before delivery, so responders answer K-wide as
// they did before the field existed.
type probeRecorder struct {
	*LocalNetwork
	wide bool
	log  []string
}

func (r *probeRecorder) CallContext(ctx context.Context, to NodeInfo, req *Request) (*Response, error) {
	r.log = append(r.log, req.Kind.String()+" "+to.Addr)
	if r.wide {
		cp := *req
		cp.Want = 0
		req = &cp
	}
	return r.LocalNetwork.CallContext(ctx, to, req)
}

// TestNarrowRepliesLeavePutProbesUnchanged scripts puts at α = 1 on two
// identical clusters, one whose responders honour Want and one whose
// responders answer K-wide: every put must probe the same nodes in the same
// order and leave its replicas on the same nodes, with all nodes up and
// with the key's one or three nearest nodes dead but still in every
// routing table.
func TestNarrowRepliesLeavePutProbesUnchanged(t *testing.T) {
	type outcome struct {
		probes   []string
		replicas []map[string]bool
		bytes    int
	}
	run := func(wide bool) outcome {
		c, err := NewCluster(256, 7, Config{Alpha: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := &probeRecorder{LocalNetwork: c.Net, wide: wide}
		pub := NewNode(NodeInfo{ID: SeededID(c.rng), Addr: "publisher"}, rec, Config{Alpha: 1})
		c.Net.Join(pub)
		// A few contacts and no join: the publisher's table does not hold
		// the keys' neighbourhoods, so every put learns them from replies.
		for _, n := range c.Nodes[:4] {
			pub.SeedContact(n.Info())
		}
		var out outcome
		for i := 0; i < 24; i++ {
			key := StringID(fmt.Sprintf("narrow-put-%d", i))
			// Odd keys lose their i%4 nearest nodes, which stay in every
			// table: each dead one the walk meets slides its window out.
			var dead []*Node
			for _, d := range remoteClosest(c, key, pub)[:i%2*(i%4)] {
				n, _ := c.Net.Lookup(d.Addr)
				c.Net.Remove(d.Addr)
				dead = append(dead, n)
			}
			stats, err := pub.PutIDContext(context.Background(), key, []byte("v"))
			if err != nil {
				t.Fatalf("wide=%v put %d: %v", wide, i, err)
			}
			out.bytes += stats.Bytes
			out.replicas = append(out.replicas, holders(c, key, pub))
			for _, n := range dead {
				c.Net.Join(n)
			}
		}
		out.probes = rec.log
		return out
	}
	narrow, wide := run(false), run(true)
	if !reflect.DeepEqual(narrow.probes, wide.probes) {
		for i := range narrow.probes {
			if i >= len(wide.probes) || narrow.probes[i] != wide.probes[i] {
				t.Fatalf("probe sequences diverge at RPC %d of %d/%d: narrow %q, wide %q",
					i, len(narrow.probes), len(wide.probes), narrow.probes[i:min(i+3, len(narrow.probes))],
					wide.probes[i:min(i+3, len(wide.probes))])
			}
		}
		t.Fatalf("wide run issued %d RPCs past the narrow run's %d", len(wide.probes)-len(narrow.probes), len(narrow.probes))
	}
	if !reflect.DeepEqual(narrow.replicas, wide.replicas) {
		t.Fatalf("replica sets differ:\n narrow %v\n wide   %v", narrow.replicas, wide.replicas)
	}
	if narrow.bytes >= wide.bytes {
		t.Errorf("narrow puts cost %d bytes, K-wide %d", narrow.bytes, wide.bytes)
	}
	t.Logf("%d RPCs either way; %d bytes narrow, %d K-wide", len(narrow.probes), narrow.bytes, wide.bytes)
}
