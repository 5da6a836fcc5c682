package scale

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/simnet"
	"piersearch/internal/telemetry"
)

// survivalPoll is how often the survival root task re-checks for query
// completion while draining in-flight work.
const survivalPoll = 100 * time.Millisecond

// runSurvival replays the churn-survival experiment: every node starts
// its maintenance loops (provider-record republish plus bucket refresh,
// all on the virtual clock), RemoveFrac of the non-core population is
// removed permanently — spread across several republish half-intervals so
// survivors can re-replicate between waves — and finally Keys sampled
// pre-churn keys are re-queried from stable-core origins. A key survives
// when at least one live holder still answers; with Replicate=3 and
// republish running, the acceptance bar is a ≥99% survival rate under 30%
// removal (0.3³ ≈ 2.7% loss without repair).
func runSurvival(cfg Config, clock *simnet.Clock, cl *Cluster, keys []dht.ID) (*SurvivalReport, error) {
	p := cfg.Survival
	rng := rand.New(rand.NewSource(cfg.Seed + 303))
	sample := make([]dht.ID, p.Keys)
	for i := range sample {
		sample[i] = keys[rng.Intn(len(keys))]
	}

	population := cfg.Nodes - cfg.StableCore
	removeN := int(p.RemoveFrac * float64(population))
	perm := rand.New(rand.NewSource(cfg.Seed + 301)).Perm(population)

	// Maintenance runs on every node, including the ones about to die:
	// a doomed node republishing before its removal is exactly the
	// behaviour that seeds extra replicas.
	stops := make([]func(), len(cl.Nodes))
	for i, n := range cl.Nodes {
		stops[i] = n.StartMaintenance()
	}
	repub0, hand0 := sumMaintenance(cl)

	// Removals spread across two republish half-intervals, so survivors
	// re-replicate between waves; the settle window then covers the
	// worst-case repair delay (rebase just before a removal, repair at the
	// next due tick) for the last wave. Each extra half-interval costs a
	// full republish wave across the cluster, so the schedule is as short
	// as the repair dynamics allow.
	half := cl.Nodes[0].Config().RepublishInterval / 2
	removeSpan := 2 * half
	settle := 2 * half

	lat := telemetry.NewHistogram(1e-3, 1e3, 40)
	hops := telemetry.NewHistogram(1, 1e3, 40)
	succeeded, done := 0, 0
	var mu sync.Mutex
	msgs0, bytes0 := cl.Net.Messages(), cl.Net.Bytes()
	step := interval(cfg.QPS)
	err := clock.Run(func() {
		base := clock.Now()
		for i := 0; i < removeN; i++ {
			idx := cfg.StableCore + perm[i]
			stop := stops[idx]
			addr := cl.Nodes[idx].Info().Addr
			at := base + half + time.Duration(i)*removeSpan/time.Duration(removeN)
			clock.At(at, func() {
				stop()
				cl.Net.Remove(addr)
			})
		}
		clock.Sleep(half + removeSpan + settle)
		for i := range sample {
			i := i
			clock.Go(func() {
				start := clock.Now()
				origin := cl.Nodes[i%cfg.StableCore]
				vals, st, qerr := origin.GetIDContext(origin.Context(), sample[i])
				elapsed := clock.Now() - start
				mu.Lock()
				defer mu.Unlock()
				done++
				if qerr != nil || len(vals) == 0 {
					return
				}
				succeeded++
				lat.Observe(elapsed.Seconds())
				hops.Observe(float64(st.Hops))
			})
			clock.Sleep(step)
		}
		// Wait for in-flight queries, then stop every maintenance loop so
		// the scheduler can drain and Run can return.
		for {
			mu.Lock()
			d := done
			mu.Unlock()
			if d == len(sample) {
				break
			}
			clock.Sleep(survivalPoll)
		}
		for _, stop := range stops {
			stop()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	msgs1, bytes1 := cl.Net.Messages(), cl.Net.Bytes()
	repub1, hand1 := sumMaintenance(cl)

	return &SurvivalReport{
		Keys:              len(sample),
		Succeeded:         succeeded,
		Rate:              round3(float64(succeeded) / float64(maxOf(len(sample), 1))),
		RemovedNodes:      removeN,
		RemoveFrac:        p.RemoveFrac,
		Hops:              quantilesRaw(hops),
		LatencyMs:         quantilesMs(lat),
		RepublishedValues: repub1 - repub0,
		HandoffsSent:      hand1 - hand0,
		Messages:          msgs1 - msgs0,
		Bytes:             bytes1 - bytes0,
	}, nil
}

// sumMaintenance totals the maintenance counters across the cluster.
func sumMaintenance(cl *Cluster) (republished, handoffs int64) {
	for _, n := range cl.Nodes {
		s := n.RoutingStats()
		republished += s.RepublishedValues
		handoffs += s.HandoffsSent
	}
	return republished, handoffs
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
