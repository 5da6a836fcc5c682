package experiments

import (
	"time"

	"piersearch/internal/gnutella"
)

// Figure4 correlates query result-set size with the average replication
// factor of the files in the result set (single-vantage floods).
func Figure4(env *StudyEnv) Series {
	covered := env.reachHosts(env.vantageReach(env.Vantages[0]))
	var sizes, avgRep []float64
	for qi := range env.Trace.Queries {
		instances, _ := env.resultCount(qi, covered)
		if instances == 0 {
			continue
		}
		// Average replication factor across distinct filenames present in
		// the result set (paper approximates the true count with the
		// union-of-30; we have ground truth).
		sum, n := 0.0, 0
		for _, rank := range env.Matching[qi] {
			present := false
			for _, h := range env.Placement[rank] {
				if covered[h] {
					present = true
					break
				}
			}
			if present {
				sum += float64(env.Trace.Files[rank].Replicas)
				n++
			}
		}
		sizes = append(sizes, float64(instances))
		avgRep = append(avgRep, sum/float64(n))
	}
	// Bucket by result size (log-ish edges), report (avg replication, size).
	s := BucketMeans(sizes, avgRep, []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
	// The paper plots results size on Y and replication on X; swap.
	out := Series{Name: "results-size vs avg-replication"}
	for _, p := range s.Points {
		out.Add(p.Y, p.X)
	}
	return out
}

// resultSizes computes, for each query, the instance counts visible from a
// single vantage and from the union of the first n vantages.
func (e *StudyEnv) resultSizes(union int) []float64 {
	covered := make(map[int32]bool)
	for _, v := range e.Vantages[:union] {
		for h := range e.reachHosts(e.vantageReach(v)) {
			covered[h] = true
		}
	}
	out := make([]float64, len(e.Trace.Queries))
	for qi := range e.Trace.Queries {
		instances, _ := e.resultCount(qi, covered)
		out[qi] = float64(instances)
	}
	return out
}

// cdfThresholds are the x-samples for the result-size CDFs.
var cdfThresholds = []float64{0, 1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// Figure5 is the result-size CDF for single-node results and Union-of-30.
func Figure5(env *StudyEnv) []Series {
	one := CDF(env.resultSizes(1), cdfThresholds)
	one.Name = "Results (1 node)"
	all := CDF(env.resultSizes(len(env.Vantages)), cdfThresholds)
	all.Name = "Union-of-30"
	return []Series{one, all}
}

// Figure6 is the result-size CDF restricted to <= 20 results for unions of
// 1, 5, 15, 25 and 30 vantage points.
func Figure6(env *StudyEnv) []Series {
	small := []float64{0, 1, 2, 3, 4, 5, 7, 10, 12, 15, 20}
	var out []Series
	for _, n := range []int{1, 5, 15, 25, 30} {
		if n > len(env.Vantages) {
			n = len(env.Vantages)
		}
		s := CDF(env.resultSizes(n), small)
		if n == 1 {
			s.Name = "Results (1 node)"
		} else {
			s.Name = "Union-of-" + itoa(n)
		}
		out = append(out, s)
	}
	return out
}

// GnutellaAggregates are the headline §4.2 numbers.
type GnutellaAggregates struct {
	PctAtMost10Single float64 // paper: 41%
	PctZeroSingle     float64 // paper: 18%
	PctAtMost10Union  float64 // paper: 27%
	PctZeroUnion      float64 // paper: 6%
	ZeroReductionPct  float64 // paper: >= 66%
}

// Aggregates computes the §4.2 headline statistics.
func Aggregates(env *StudyEnv) GnutellaAggregates {
	single := env.resultSizes(1)
	union := env.resultSizes(len(env.Vantages))
	a := GnutellaAggregates{
		PctAtMost10Single: 100 * FracAtMost(single, 10),
		PctZeroSingle:     100 * FracAtMost(single, 0),
		PctAtMost10Union:  100 * FracAtMost(union, 10),
		PctZeroUnion:      100 * FracAtMost(union, 0),
	}
	if a.PctZeroSingle > 0 {
		a.ZeroReductionPct = 100 * (a.PctZeroSingle - a.PctZeroUnion) / a.PctZeroSingle
	}
	return a
}

// Figure7 correlates result-set size with average first-result latency
// under the dynamic-querying latency model: a query first flooded with
// TTL 1 is re-flooded one hop deeper after each RoundWait until the
// nearest matching host's depth is inside the horizon.
func Figure7(env *StudyEnv) Series {
	covered := env.reachHosts(env.vantageReach(env.Vantages[0]))
	hop := func() time.Duration {
		spread := env.Cfg.HopDelayMax - env.Cfg.HopDelayMin
		return env.Cfg.HopDelayMin + time.Duration(env.rng.Int63n(int64(spread)))
	}
	var sizes, lats []float64
	for qi, q := range env.Trace.Queries {
		instances, _ := env.resultCount(qi, covered)
		if instances == 0 {
			continue
		}
		d := gnutella.FirstMatchDepth(env.Topo, env.Lib, env.Vantages[0], q.Terms)
		if d < 0 {
			continue
		}
		lat := time.Duration(0)
		if d > 1 {
			lat += time.Duration(d-1) * env.Cfg.RoundWait // waits before the round that reaches depth d
		}
		hops := d
		if hops < 1 {
			hops = 1 // matches in the origin's own subtree still pay leaf processing
		}
		for i := 0; i < 2*hops; i++ { // out and back
			lat += hop()
		}
		sizes = append(sizes, float64(instances))
		lats = append(lats, lat.Seconds())
	}
	return BucketMeans(sizes, lats, []float64{1, 2, 5, 10, 20, 50, 100, 150, 200, 500})
}

// Figure8Config sizes the flooding-overhead experiment. The paper analyses
// the crawled graph of ~18k+ ultrapeers.
type Figure8Config struct {
	Ultrapeers int
	Sources    int
	MaxTTL     int
	Seed       int64
}

// Figure8 computes ultrapeers visited vs messages sent as the flooding
// horizon grows, averaged over several source ultrapeers.
func Figure8(cfg Figure8Config) (Series, error) {
	if cfg.Ultrapeers <= 0 {
		cfg.Ultrapeers = 20000
	}
	if cfg.Sources <= 0 {
		cfg.Sources = 5
	}
	if cfg.MaxTTL <= 0 {
		cfg.MaxTTL = 8
	}
	topo, err := gnutella.NewTopology(gnutella.TopologyConfig{
		Ultrapeers:    cfg.Ultrapeers,
		Hosts:         cfg.Ultrapeers * 5,
		NewClientFrac: 0.1,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return Series{}, err
	}
	totalMsgs := make([]float64, cfg.MaxTTL)
	totalVisited := make([]float64, cfg.MaxTTL)
	for s := 0; s < cfg.Sources; s++ {
		src := (s * 7919) % cfg.Ultrapeers
		for _, c := range gnutella.FloodCosts(topo, src, cfg.MaxTTL) {
			totalMsgs[c.TTL-1] += float64(c.Messages)
			totalVisited[c.TTL-1] += float64(c.Visited)
		}
	}
	out := Series{Name: "ultrapeers visited"}
	for i := range totalMsgs {
		out.Add(totalMsgs[i]/float64(cfg.Sources)/1000, totalVisited[i]/float64(cfg.Sources))
	}
	return out, nil
}

// CrawlSummary reproduces the §4.1 crawl: size estimate and duration.
type CrawlSummary struct {
	HostsSeen         int
	UltrapeersSeen    int
	FilesEstimate     int
	EstimatedDuration time.Duration
}

// CrawlStudy crawls the study topology from 30 seeds.
func CrawlStudy(env *StudyEnv) CrawlSummary {
	res := gnutella.Crawl(env.Topo, gnutella.CrawlConfig{
		Seeds:       env.Vantages,
		RespondProb: 0.9,
		Seed:        env.Cfg.Seed,
	})
	return CrawlSummary{
		HostsSeen:         res.HostsSeen(),
		UltrapeersSeen:    res.UltrapeersSeen,
		FilesEstimate:     env.Lib.NumFiles(),
		EstimatedDuration: res.EstimatedDuration,
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
