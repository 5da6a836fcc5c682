package dht

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentPutGet drives overlapping Put/Get/Lookup traffic through a
// cluster from many goroutines. Run with -race: it exercises the internal
// locking of Store, Table and the app-handler map that the concurrent PIER
// pipeline depends on.
func TestConcurrentPutGet(t *testing.T) {
	cluster, err := NewCluster(16, 7, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	const opsPer = 20

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := cluster.Nodes[g%len(cluster.Nodes)]
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("key-%d", i%8) // overlap keys across goroutines
				data := []byte(fmt.Sprintf("val-%d-%d", g, i))
				if _, err := node.PutContext(context.Background(), "bench", key, data); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				if _, _, err := node.GetContext(context.Background(), "bench", key); err != nil {
					errs <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				if _, _, err := node.LookupContext(context.Background(), StringID(key)); err != nil {
					errs <- fmt.Errorf("lookup %s: %w", key, err)
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

	// Every key must now be resolvable from every node with a full value set.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		values, _, err := cluster.Nodes[i].GetContext(context.Background(), "bench", key)
		if err != nil {
			t.Fatalf("final get %s: %v", key, err)
		}
		if len(values) == 0 {
			t.Fatalf("final get %s: no values", key)
		}
	}
}

// TestConcurrentAppSend exercises concurrent application messages routed to
// key owners, the primitive the concurrent chain join and probe fan-out use.
func TestConcurrentAppSend(t *testing.T) {
	cluster, err := NewCluster(12, 11, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range cluster.Nodes {
		node.RegisterApp("echo", func(_ NodeInfo, data []byte) []byte { return data })
	}
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := cluster.Nodes[g%len(cluster.Nodes)]
			for i := 0; i < 15; i++ {
				payload := []byte(fmt.Sprintf("msg-%d-%d", g, i))
				reply, _, err := node.SendContext(context.Background(), StringID(fmt.Sprintf("target-%d", i)), "echo", payload)
				if err != nil {
					errs <- err
					return
				}
				if string(reply) != string(payload) {
					errs <- fmt.Errorf("echo mismatch: %q != %q", reply, payload)
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
