// Package experiments reproduces every table and figure of the paper's
// evaluation. Each Figure* function regenerates one artefact's data series;
// the cmd/ binaries print them and the root benchmarks time them. README's
// "Paper section → package map" indexes the experiments; ROADMAP item 14
// tracks measured results against the paper's numbers.
package experiments

import (
	"math/rand"
	"time"

	"piersearch/internal/gnutella"
	"piersearch/internal/piersearch"
	"piersearch/internal/trace"
)

// StudyConfig sizes the Gnutella measurement study (§4). Scale 1.0 is the
// paper's trace: 75,129 hosts, ~315k file instances, 700 queries, 30
// vantage ultrapeers. Benchmarks and tests run smaller scales; the
// distributions keep their shape.
type StudyConfig struct {
	Scale float64
	// HorizonFrac is the fraction of ultrapeers a single flooded query
	// reaches (default 0.25). Real floods cover a bounded fraction of the
	// overlay regardless of TTL: dynamic-query abort, degree limits and
	// churn all truncate the horizon.
	HorizonFrac float64
	// RoundWait is the dynamic-query inter-round wait used by the latency
	// model; HopDelayMin/Max bound the per-hop forwarding delay.
	RoundWait                time.Duration
	HopDelayMin, HopDelayMax time.Duration
	Vantages                 int
	Seed                     int64
}

// Normalize fills defaults and returns the config.
func (c StudyConfig) Normalize() StudyConfig {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.HorizonFrac <= 0 || c.HorizonFrac > 1 {
		c.HorizonFrac = 0.25
	}
	if c.RoundWait <= 0 {
		c.RoundWait = 15 * time.Second
	}
	if c.HopDelayMin <= 0 {
		c.HopDelayMin = 1250 * time.Millisecond
	}
	if c.HopDelayMax <= c.HopDelayMin {
		c.HopDelayMax = 2250 * time.Millisecond
	}
	if c.Vantages <= 0 {
		c.Vantages = 30
	}
	return c
}

func scaled(v float64, scale float64, min int) int {
	n := int(v * scale)
	if n < min {
		n = min
	}
	return n
}

// StudyEnv is the materialised study environment: a topology, a library
// populated from a synthetic trace, and the vantage ultrapeers.
type StudyEnv struct {
	Cfg       StudyConfig
	Trace     *trace.Trace
	Topo      *gnutella.Topology
	Lib       *gnutella.Library
	Placement [][]int32
	Matching  [][]int // per query: matching distinct-file ranks
	Vantages  []gnutella.HostID
	rng       *rand.Rand
}

// NewStudyEnv builds the environment.
func NewStudyEnv(cfg StudyConfig) (*StudyEnv, error) {
	cfg = cfg.Normalize()
	tr := trace.Generate(trace.Config{
		DistinctFiles: scaled(100_000, cfg.Scale, 2000),
		TargetCopies:  scaled(315_546, cfg.Scale, 6000),
		Hosts:         scaled(75_129, cfg.Scale, 1500),
		Vocabulary:    scaled(40_000, cfg.Scale, 2000),
		Queries:       scaled(700, cfg.Scale, 150),
		Seed:          cfg.Seed,
	})
	ups := tr.Cfg.Hosts / 30 // ~30 hosts per ultrapeer subtree (§4.1)
	if ups < 50 {
		ups = 50
	}
	topo, err := gnutella.NewTopology(gnutella.TopologyConfig{
		Ultrapeers:    ups,
		Hosts:         tr.Cfg.Hosts,
		NewClientFrac: 0.1,
		Seed:          cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	lib := gnutella.NewLibrary(topo, piersearch.Tokenizer{})
	placement := tr.Placement(tr.Cfg.Hosts)
	for rank, hosts := range placement {
		f := tr.Files[rank]
		for _, h := range hosts {
			lib.AddFile(int(h), gnutella.SharedFile{Name: f.Name, Size: 3_500_000})
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	env := &StudyEnv{
		Cfg:       cfg,
		Trace:     tr,
		Topo:      topo,
		Lib:       lib,
		Placement: placement,
		Matching:  tr.MatchingFiles(),
		rng:       rng,
	}
	for len(env.Vantages) < cfg.Vantages {
		env.Vantages = append(env.Vantages, rng.Intn(ups))
	}
	return env, nil
}

// Replicas returns the per-rank replica counts.
func (e *StudyEnv) Replicas() []int {
	out := make([]int, len(e.Trace.Files))
	for i, f := range e.Trace.Files {
		out[i] = f.Replicas
	}
	return out
}

// FileTerms returns the per-rank term lists.
func (e *StudyEnv) FileTerms() [][]string {
	out := make([][]string, len(e.Trace.Files))
	for i, f := range e.Trace.Files {
		out[i] = f.Terms
	}
	return out
}

// vantageReach returns the ultrapeers a flood from v covers: the first
// HorizonFrac of the overlay in BFS order.
func (e *StudyEnv) vantageReach(v gnutella.HostID) []gnutella.HostID {
	k := int(e.Cfg.HorizonFrac * float64(e.Topo.NumUltrapeers()))
	return gnutella.ReachFirstK(e.Topo, v, k)
}

// reachHosts expands a reach set of ultrapeers into the covered hosts.
func (e *StudyEnv) reachHosts(reach []gnutella.HostID) map[int32]bool {
	covered := make(map[int32]bool)
	for _, u := range reach {
		for _, h := range e.Topo.HostsOf(u) {
			covered[int32(h)] = true
		}
	}
	return covered
}

// resultCount returns how many instances of the query's matching files lie
// inside the covered host set, and how many distinct files are represented.
func (e *StudyEnv) resultCount(qi int, covered map[int32]bool) (instances, distinct int) {
	for _, rank := range e.Matching[qi] {
		found := 0
		for _, h := range e.Placement[rank] {
			if covered[h] {
				found++
			}
		}
		instances += found
		if found > 0 {
			distinct++
		}
	}
	return instances, distinct
}
