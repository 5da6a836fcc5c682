package wire

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"piersearch/internal/dht"
)

// echoServer starts a raw frame server that echoes every request back as a
// response carrying the request's Data payload.
func echoNode(t testing.TB, transport *TCPTransport) *dht.Node {
	t.Helper()
	node, _ := startTCPNode(t, transport)
	node.RegisterApp("echo", func(_ dht.NodeInfo, data []byte) []byte { return data })
	return node
}

// TestTCPConcurrentSharedConnection drives many concurrent RPC round-trips
// through one TCPTransport restricted to a single pooled connection per
// destination, so every frame shares the same socket. Run with -race: it
// verifies the per-connection locking keeps frames from interleaving.
func TestTCPConcurrentSharedConnection(t *testing.T) {
	for _, maxConns := range []int{1, 4} {
		t.Run(fmt.Sprintf("maxconns-%d", maxConns), func(t *testing.T) {
			transport := NewTCPTransport()
			transport.MaxConnsPerHost = maxConns
			defer transport.Close()
			server := echoNode(t, transport)
			client := echoNode(t, transport)

			const goroutines = 8
			const callsPer = 25
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < callsPer; i++ {
						payload := []byte(fmt.Sprintf("frame-%d-%d", g, i))
						reply, _, err := client.SendToContext(context.Background(), server.Info(), "echo", payload)
						if err != nil {
							errs <- err
							return
						}
						if string(reply) != string(payload) {
							errs <- fmt.Errorf("reply %q for request %q: frames interleaved", reply, payload)
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
		})
	}
}

// TestTCPConcurrentPutGet exercises the full DHT protocol concurrently
// over the pooled TCP transport.
func TestTCPConcurrentPutGet(t *testing.T) {
	transport := NewTCPTransport()
	defer transport.Close()
	const n = 6
	nodes := make([]*dht.Node, n)
	for i := range nodes {
		nodes[i], _ = startTCPNode(t, transport)
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].JoinNetwork([]dht.NodeInfo{nodes[0].Info()}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("key-%d", i%4)
				if _, err := nodes[g].PutContext(context.Background(), "ns", key, []byte(fmt.Sprintf("v-%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
				if _, _, err := nodes[(g+1)%n].GetContext(context.Background(), "ns", key); err != nil {
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
