package simnet_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/dht/dhttest"
	"piersearch/internal/simnet"
)

func TestVirtualNetConformance(t *testing.T) {
	dhttest.RunConformance(t, func(t *testing.T) *dhttest.Harness {
		clock := simnet.NewClock()
		net := simnet.NewNet(clock, simnet.Constant(10*time.Millisecond), 1)
		rng := rand.New(rand.NewSource(7))
		next := 0
		return &dhttest.Harness{
			Transport: net,
			NewNode: func() *dht.Node {
				n := dht.NewNode(dht.NodeInfo{ID: dht.SeededID(rng), Addr: fmt.Sprintf("vt-%d", next)}, net, simnet.ClockConfig(clock, dht.Config{}))
				next++
				net.Join(n)
				t.Cleanup(func() { n.Close() }) //nolint:errcheck // test teardown
				return n
			},
			Detach: net.Detach,
			Run: func(fns ...func()) {
				// Virtual-time callers must be clock tasks, not goroutines.
				err := clock.Run(func() {
					for _, fn := range fns {
						clock.Go(fn)
					}
				})
				if err != nil {
					t.Fatalf("clock run: %v", err)
				}
			},
		}
	})
}
