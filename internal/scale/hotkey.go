package scale

// Hot-key survival experiment: after the main phases, the same
// Zipf-skewed single-term workload is replayed twice over a drained,
// fully-attached network — once with every engine's hot tier removed
// (baseline) and once with fresh tiers (cached) — and the report pins
// the traffic the hottest node absorbed under each. The workload is
// precomputed once, so both phases replay byte-identical query
// sequences; each phase runs an unmeasured warm-up first (covering every
// (origin, term) pair round-robin) so the cached phase is measured warm
// and the baseline pays the same extra load.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/simnet"
	"piersearch/internal/telemetry"
	"piersearch/internal/trace"
)

// HotKeyParams parameterises the hot-key phases. Queries == 0 disables
// them.
type HotKeyParams struct {
	// Queries is the number of measured hot-key queries per phase.
	Queries int
	// Warmup is the number of unmeasured warm-up queries per phase
	// (default Origins*Terms: every origin asks every hot term once).
	Warmup int
	// QPS is the hot workload's arrival rate in virtual time (default
	// 200 — deliberately hotter than the main phase, this is a stress
	// experiment).
	QPS float64
	// Terms is the hot vocabulary: the N highest-instance-frequency
	// terms of the trace (default 12).
	Terms int
	// Origins is how many stable-core nodes the queries funnel through
	// (default 4, clamped to StableCore). Few origins make requester-side
	// caching visible; the skew is in the keys either way.
	Origins int
	// ZipfS is the Zipf exponent over the hot terms (default 1.1).
	ZipfS float64
}

// scaleTierOptions is the tier configuration every engine in the harness
// runs: small budgets (10k+ nodes share one process), the virtual clock,
// and a poll-based singleflight wait — the default channel select would
// block outside the clock and deadlock the scheduler.
func scaleTierOptions(clock *simnet.Clock) hotcache.Options {
	return hotcache.Options{
		MaxBytes:     1 << 20,
		Shards:       4,
		TTL:          30 * time.Second,
		HotThreshold: 4,
		Clock:        clock.Now,
		Wait: func(ctx context.Context, done <-chan struct{}) error {
			for {
				select {
				case <-done:
					return nil
				default:
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				clock.Sleep(5 * time.Millisecond)
			}
		},
	}
}

// classifyFailure maps an operation error to a short failure code for
// the per-code breakdowns. Substring checks run most-specific first: a
// chain-forward failure wraps an unreachable-node error, and must not be
// filed under the generic cause.
func classifyFailure(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, dht.ErrNoContacts):
		return "no-contacts"
	case errors.Is(err, pier.ErrDecode):
		return "decode"
	}
	s := err.Error()
	switch {
	case strings.Contains(s, "forward to step"):
		return "chain-forward"
	case strings.Contains(s, "chain dispatch"):
		return "chain-dispatch"
	case strings.Contains(s, "timed out"):
		return "timeout"
	case strings.Contains(s, "no replica stored"):
		return "no-replica"
	case strings.Contains(s, "unreachable"):
		return "unreachable"
	default:
		return "other"
	}
}

// hotTerms picks the workload's vocabulary: the n terms with the highest
// instance frequency, ties broken alphabetically so the choice is
// deterministic.
func hotTerms(tr *trace.Trace, n int) []string {
	freq := tr.TermInstanceFrequency()
	terms := make([]string, 0, len(freq))
	for t := range freq {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if freq[terms[i]] != freq[terms[j]] {
			return freq[terms[i]] > freq[terms[j]]
		}
		return terms[i] < terms[j]
	})
	if len(terms) > n {
		terms = terms[:n]
	}
	return terms
}

// zipfPicks draws n term indexes from a Zipf(s) distribution over k
// terms using the given rng.
func zipfPicks(rng *rand.Rand, n, k int, s float64) []int {
	weights := make([]float64, k)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	out := make([]int, n)
	for i := range out {
		r := rng.Float64() * total
		for j, w := range weights {
			r -= w
			if r <= 0 || j == k-1 {
				out[i] = j
				break
			}
		}
	}
	return out
}

// sumTiers aggregates the data-cache and tier counters across nodes.
func sumTiers(tiers []*hotcache.Tier) CacheStats {
	var out CacheStats
	for _, t := range tiers {
		if t == nil {
			continue
		}
		st := t.Stats()
		out.Hits += st.Data.Hits
		out.Misses += st.Data.Misses
		out.Evictions += st.Data.Evictions
		out.Expirations += st.Data.Expirations
		out.Invalidations += st.Data.Invalidations
		out.Coalesced += st.Coalesced
		out.FanoutReads += st.FanoutReads
	}
	return out
}

// sub returns the counter deltas c - o.
func (c CacheStats) sub(o CacheStats) CacheStats {
	return CacheStats{
		Hits:          c.Hits - o.Hits,
		Misses:        c.Misses - o.Misses,
		Evictions:     c.Evictions - o.Evictions,
		Expirations:   c.Expirations - o.Expirations,
		Invalidations: c.Invalidations - o.Invalidations,
		Coalesced:     c.Coalesced - o.Coalesced,
		FanoutReads:   c.FanoutReads - o.FanoutReads,
	}
}

// hottestNode finds the node with the largest message delta between two
// PerNode snapshots (ties break toward the smaller address, so map
// iteration order cannot leak into the report).
func hottestNode(preM, postM, preB, postB map[string]uint64) HotNodeStats {
	var best HotNodeStats
	for addr, m := range postM {
		d := m - preM[addr]
		if d > best.Messages || (d == best.Messages && (best.Addr == "" || addr < best.Addr)) {
			best = HotNodeStats{Addr: addr, Messages: d, Bytes: postB[addr] - preB[addr]}
		}
	}
	return best
}

// hotRunner carries the state the hot-key phases share.
type hotRunner struct {
	cfg      Config
	clock    *simnet.Clock
	cl       *Cluster
	engines  []*pier.Engine
	searches []*piersearch.Search
	terms    []string
	picks    []int // measured-query term indexes, shared by both phases
}

// runPhase replays warm-up + measured queries once. tiers is nil for the
// baseline phase; for the cached phase it holds the fresh per-engine
// tiers whose counters the phase reports.
func (h *hotRunner) runPhase(tiers []*hotcache.Tier) (HotPhaseStats, error) {
	hk := h.cfg.HotKey
	step := interval(hk.QPS)
	// Warm-up: every (origin, term) pair round-robin, unmeasured. With
	// no tier this is simply the same extra load the cached phase gets.
	err := h.clock.Run(func() {
		for j := 0; j < hk.Warmup; j++ {
			j := j
			h.clock.Go(func() {
				term := h.terms[(j/hk.Origins)%len(h.terms)]
				h.searches[j%hk.Origins].Query(term, h.cfg.Strategy, h.cfg.Limit) //nolint:errcheck // warm-up only
			})
			h.clock.Sleep(step)
		}
	})
	if err != nil {
		return HotPhaseStats{}, err
	}

	preM, preB := h.cl.Net.PerNode()
	gm0, gb0 := h.cl.Net.Messages(), h.cl.Net.Bytes()
	lat := telemetry.NewHistogram(1e-3, 1e3, 40)
	var mu sync.Mutex
	failed, matches := 0, 0
	fails := map[string]int{}
	err = h.clock.Run(func() {
		for i := 0; i < hk.Queries; i++ {
			i := i
			h.clock.Go(func() {
				start := h.clock.Now()
				results, _, qerr := h.searches[i%hk.Origins].Query(h.terms[h.picks[i]], h.cfg.Strategy, h.cfg.Limit)
				elapsed := h.clock.Now() - start
				mu.Lock()
				defer mu.Unlock()
				if qerr != nil {
					failed++
					fails[classifyFailure(qerr)]++
					return
				}
				lat.Observe(elapsed.Seconds())
				matches += len(results)
			})
			h.clock.Sleep(step)
		}
	})
	if err != nil {
		return HotPhaseStats{}, err
	}
	postM, postB := h.cl.Net.PerNode()
	st := HotPhaseStats{
		Queries:     hk.Queries,
		Warmup:      hk.Warmup,
		Failed:      failed,
		Failures:    failureCounts(fails),
		Matches:     matches,
		LatencyMs:   quantilesMs(lat),
		Messages:    h.cl.Net.Messages() - gm0,
		Bytes:       h.cl.Net.Bytes() - gb0,
		HottestNode: hottestNode(preM, postM, preB, postB),
	}
	if tiers != nil {
		c := sumTiers(tiers)
		st.Cache = &c
	}
	return st, nil
}

// runHotKey executes both hot-key phases and returns their paired stats.
// Callers must have drained churn and reattached every node first, so
// the two phases see identical networks.
func runHotKey(h *hotRunner) (*HotKeyStats, error) {
	// Baseline: no tier anywhere.
	for _, e := range h.engines {
		e.SetHotTier(nil)
	}
	baseline, err := h.runPhase(nil)
	if err != nil {
		return nil, err
	}

	// Cached: fresh tiers everywhere, so the reported counters are
	// phase-pure.
	tiers := make([]*hotcache.Tier, len(h.engines))
	opts := scaleTierOptions(h.clock)
	for i, e := range h.engines {
		tiers[i] = hotcache.NewTier(opts)
		e.SetHotTier(tiers[i])
	}
	cached, err := h.runPhase(tiers)
	if err != nil {
		return nil, err
	}

	out := &HotKeyStats{
		Terms:    len(h.terms),
		Origins:  h.cfg.HotKey.Origins,
		ZipfS:    h.cfg.HotKey.ZipfS,
		Baseline: baseline,
		Cached:   cached,
	}
	// A cached phase served entirely from cache leaves the hottest node at
	// zero messages; floor the denominator so the ratio stays finite.
	den := cached.HottestNode.Messages
	if den == 0 {
		den = 1
	}
	out.HottestMsgReduction = round3(float64(baseline.HottestNode.Messages) / float64(den))
	return out, nil
}
