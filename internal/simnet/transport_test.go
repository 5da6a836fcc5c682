package simnet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"piersearch/internal/dht"
)

func TestRealTimeClusterPutGet(t *testing.T) {
	rt, nodes, err := NewRealTimeCluster(8, 3, dht.Config{}, Constant(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].PutContext(context.Background(), "ns", "key", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	values, _, err := nodes[5].GetContext(context.Background(), "ns", "key")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || string(values[0].Data) != "hello" {
		t.Fatalf("Get = %v", values)
	}
	if rt.Messages() == 0 || rt.Bytes() == 0 {
		t.Error("traffic counters not incremented")
	}
}

func TestRealTimeImposesLatency(t *testing.T) {
	rt, nodes, err := NewRealTimeCluster(4, 5, dht.Config{}, Constant(0))
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a measurable latency after bootstrap so setup stays fast.
	rt.SetLatency(Constant(5 * time.Millisecond))
	start := time.Now()
	if _, _, err := nodes[0].LookupContext(context.Background(), nodes[3].Info().ID); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("lookup took %v, want >= one 10ms round-trip", elapsed)
	}
}

// TestRealTimeConcurrentCalls overlaps traffic from many goroutines; run
// with -race to verify the transport and node locking under latency, where
// calls genuinely interleave in time.
func TestRealTimeConcurrentCalls(t *testing.T) {
	_, nodes, err := NewRealTimeCluster(8, 9, dht.Config{}, Constant(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
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
