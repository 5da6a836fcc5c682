package dht_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/dht/dhttest"
	"piersearch/internal/simnet"
)

// goroutineRunner runs the suite's workloads on plain goroutines — the
// right shape for wall-clock transports whose callers may block.
func goroutineRunner(fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// TestLocalNetworkConformance runs the transport suite over synchronous
// delivery and again over wall-clock link latency. A small constant
// latency keeps the second pass fast while still exercising the sleeping
// call paths.
func TestLocalNetworkConformance(t *testing.T) {
	run := func(t *testing.T, latency dht.LatencyModel) {
		dhttest.RunConformance(t, func(t *testing.T) *dhttest.Harness {
			net := dht.NewLocalNetwork(1)
			net.SetLatency(latency)
			rng := rand.New(rand.NewSource(7))
			next := 0
			return &dhttest.Harness{
				Transport: net,
				NewNode: func() *dht.Node {
					n := dht.NewNode(dht.NodeInfo{ID: dht.SeededID(rng), Addr: fmt.Sprintf("local-%d", next)}, net, dht.Config{})
					next++
					net.Join(n)
					t.Cleanup(func() { n.Close() }) //nolint:errcheck // test teardown
					return n
				},
				Detach: net.Remove,
				Run:    goroutineRunner,
			}
		})
	}
	run(t, nil)
	t.Run("Latency", func(t *testing.T) { run(t, simnet.Constant(200*time.Microsecond)) })
}

func TestLocalNetworkImposesLatency(t *testing.T) {
	c, err := dht.NewCluster(4, 5, dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a measurable latency after bootstrap so setup stays fast.
	c.Net.SetLatency(simnet.Constant(5 * time.Millisecond))
	start := time.Now()
	if _, _, err := c.Nodes[0].LookupContext(context.Background(), c.Nodes[3].Info().ID); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("lookup took %v, want >= one 10ms round-trip", elapsed)
	}
}

// TestLocalNetworkConcurrentCalls overlaps traffic from many goroutines;
// run with -race to verify the transport and node locking under latency,
// where calls genuinely interleave in time.
func TestLocalNetworkConcurrentCalls(t *testing.T) {
	c, err := dht.NewCluster(8, 9, dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.SetLatency(simnet.Constant(200 * time.Microsecond))
	nodes := c.Nodes
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("k-%d", i%3)
				if _, err := nodes[g].PutContext(context.Background(), "ns", key, []byte(fmt.Sprintf("v-%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
				if _, _, err := nodes[(g+3)%8].GetContext(context.Background(), "ns", key); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLocalNetworkCancelDuringHandlerDelivers pins the zero-leg rule: a
// synchronous call whose context is canceled while the destination
// handler runs still returns that handler's response.
func TestLocalNetworkCancelDuringHandlerDelivers(t *testing.T) {
	net := dht.NewLocalNetwork(1)
	rng := rand.New(rand.NewSource(3))
	a := dht.NewNode(dht.NodeInfo{ID: dht.SeededID(rng), Addr: "a"}, net, dht.Config{})
	b := dht.NewNode(dht.NodeInfo{ID: dht.SeededID(rng), Addr: "b"}, net, dht.Config{})
	net.Join(a)
	net.Join(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.RegisterApp("cancel", func(_ dht.NodeInfo, data []byte) []byte {
		cancel()
		return data
	})
	req := &dht.Request{Kind: dht.RPCApp, From: a.Info(), App: "cancel", Data: []byte("done")}
	resp, err := net.CallContext(ctx, b.Info(), req)
	if err != nil {
		t.Fatalf("call canceled inside its handler: %v", err)
	}
	if !resp.OK || string(resp.Data) != "done" {
		t.Fatalf("resp = %+v, want OK echo of %q", resp, "done")
	}
}
