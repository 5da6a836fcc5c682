package scale

import (
	"fmt"
	"math/rand"
	"sync"

	"piersearch/internal/dht"
	"piersearch/internal/metrics"
)

// runRoutingPhase measures the Kademlia layer directly: RoutingLookups
// iterative FindNode lookups toward uniform random targets, issued from
// stable-core origins at the query rate, followed by a census of routing
// table state across every node. Lookup hops must grow like O(log n) and
// per-node contacts like O(k·log n) — the two structural claims the
// acceptance tests pin.
func runRoutingPhase(cfg Config, clock *Clock, cl *Cluster) (*RoutingReport, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 404))
	targets := make([]dht.ID, cfg.RoutingLookups)
	for i := range targets {
		targets[i] = dht.SeededID(rng)
	}

	hops := metrics.NewHistogram(1, 1e3, 40)
	lat := metrics.NewHistogram(1e-3, 1e3, 40)
	failed := 0
	var mu sync.Mutex
	msgs0, bytes0 := cl.Net.Messages(), cl.Net.Bytes()
	step := interval(cfg.QPS)
	err := clock.Run(func() {
		for i := range targets {
			i := i
			clock.Go(func() {
				start := clock.Now()
				origin := cl.Nodes[i%cfg.StableCore]
				_, st, lerr := origin.LookupContext(origin.Context(), targets[i])
				elapsed := clock.Now() - start
				mu.Lock()
				defer mu.Unlock()
				if lerr != nil {
					failed++
					return
				}
				hops.Observe(float64(st.Hops))
				lat.Observe(elapsed.Seconds())
			})
			clock.Sleep(step)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lookups: %w", err)
	}
	msgs1, bytes1 := cl.Net.Messages(), cl.Net.Bytes()

	contacts := metrics.NewHistogram(1, 1e6, 40)
	total, maxContacts := 0, 0
	for _, n := range cl.Nodes {
		l := n.TableLen()
		contacts.Observe(float64(l))
		total += l
		if l > maxContacts {
			maxContacts = l
		}
	}
	return &RoutingReport{
		Lookups:           cfg.RoutingLookups,
		Failed:            failed,
		Hops:              quantilesRaw(hops),
		LatencyMs:         quantilesMs(lat),
		MessagesPerLookup: round3(float64(msgs1-msgs0) / float64(cfg.RoutingLookups)),
		TableContacts:     quantilesRaw(contacts),
		MaxTableContacts:  maxContacts,
		TotalContacts:     total,
		Messages:          msgs1 - msgs0,
		Bytes:             bytes1 - bytes0,
	}, nil
}
