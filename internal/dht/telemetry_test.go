package dht

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"piersearch/internal/telemetry"
)

// TestRPCCountersConserve: over one cluster whose nodes share a registry,
// every RPC a node sends is either served by its peer or counted failed,
// so Σ dht.rpc.out.* == Σ dht.rpc.in.* + dht.rpc.out.failed — also after
// removed nodes make some calls fail.
func TestRPCCountersConserve(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewCluster(24, 7, Config{K: 8, Alpha: 3, Replicate: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Remove nodes from the middle of the join order so the survivors'
	// tables still name them and their calls to them fail.
	for _, i := range []int{5, 11, 17} {
		c.RemoveNode(i)
	}
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		n := c.Nodes[i%len(c.Nodes)]
		key := fmt.Sprintf("k%d", i)
		if _, err := n.PutContext(ctx, "ns", key, []byte("v")); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if _, _, err := c.Nodes[(i*7+3)%len(c.Nodes)].GetContext(ctx, "ns", key); err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	var out, in, failed int64
	for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		name, val, _ := strings.Cut(l, " ")
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // gauges and histograms are not RPC counts
		}
		switch {
		case name == "dht.rpc.out.failed":
			failed += v
		case strings.HasPrefix(name, "dht.rpc.out."):
			out += v
		case strings.HasPrefix(name, "dht.rpc.in."):
			in += v
		}
	}
	if failed == 0 {
		t.Fatalf("no call failed (out %d, in %d): the removed nodes were never probed", out, in)
	}
	if out != in+failed {
		t.Fatalf("rpc counters do not conserve: out %d != in %d + failed %d\n%s", out, in, failed, b.String())
	}
	t.Logf("out %d = in %d + failed %d", out, in, failed)
}
