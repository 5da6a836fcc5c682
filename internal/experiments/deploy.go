package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/gnutella"
	"piersearch/internal/hybrid"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/trace"
)

// PostingShipResult is the §5 validation: rare queries ship far fewer
// posting-list entries through the distributed join than average queries
// (the paper measured 7x fewer for <=10-result queries).
type PostingShipResult struct {
	Queries        int
	AvgShippedAll  float64
	AvgShippedRare float64 // queries returning <= 10 results
	Ratio          float64 // AvgShippedAll / AvgShippedRare
}

// PostingListShipping replays the trace queries through a real PIER
// cluster using the distributed SHJ plan (smallest-posting-list-first,
// with the Bloom pre-join) and measures posting entries shipped per query
// over a sampled library.
func PostingListShipping(env *StudyEnv, clusterSize, sampleInstances int) (PostingShipResult, error) {
	var res PostingShipResult
	if clusterSize <= 0 {
		clusterSize = 32
	}
	cluster, err := dht.NewCluster(clusterSize, env.Cfg.Seed+41, dht.Config{})
	if err != nil {
		return res, err
	}
	engines := make([]*pier.Engine, clusterSize)
	for i, node := range cluster.Nodes {
		engines[i] = pier.NewEngine(node, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engines[i])
	}

	total := env.Trace.TotalInstances()
	if sampleInstances <= 0 || sampleInstances > total {
		sampleInstances = total
	}
	p := float64(sampleInstances) / float64(total)
	rng := rand.New(rand.NewSource(env.Cfg.Seed + 42))
	published := 0
	for rank, f := range env.Trace.Files {
		for copyIdx := 0; copyIdx < f.Replicas; copyIdx++ {
			if rng.Float64() >= p {
				continue
			}
			fileID := []byte(fmt.Sprintf("%d/%d", rank, copyIdx))
			e := engines[published%clusterSize]
			for _, term := range f.Terms {
				if _, err := e.PublishContext(e.Node().Context(), piersearch.TableInverted,
					pier.Tuple{pier.String(term), pier.Bytes(fileID)}); err != nil {
					return res, err
				}
			}
			published++
		}
	}

	var sumAll, sumRare float64
	var nRare int
	for _, q := range env.Trace.Queries {
		keys := make([]pier.Value, len(q.Terms))
		for i, t := range q.Terms {
			keys[i] = pier.String(t)
		}
		e := engines[res.Queries%clusterSize]
		values, stats, err := e.ChainJoinConcurrentContext(e.Node().Context(), piersearch.TableInverted, keys, "fileID", 0)
		if err != nil {
			return res, err
		}
		res.Queries++
		sumAll += float64(stats.PostingShipped)
		if len(values) <= 10 {
			sumRare += float64(stats.PostingShipped)
			nRare++
		}
	}
	if res.Queries > 0 {
		res.AvgShippedAll = sumAll / float64(res.Queries)
	}
	if nRare > 0 {
		res.AvgShippedRare = sumRare / float64(nRare)
	}
	if res.AvgShippedRare > 0 {
		res.Ratio = res.AvgShippedAll / res.AvgShippedRare
	}
	return res, nil
}

// DeployConfig sizes the §7 deployment experiment: a Gnutella overlay in
// which HybridCount ultrapeers run the hybrid LimeWire/PIERSearch client
// and share a DHT, the rest are plain Gnutella.
type DeployConfig struct {
	Ultrapeers     int // overlay ultrapeers (default 300)
	Hosts          int // overlay hosts (default 9,000)
	HybridCount    int // hybrid ultrapeers (default 50, as deployed)
	WarmupQueries  int // snooped queries driving QRS publishing (default 120)
	MeasureQueries int // hybrid leaf queries measured (default 100)
	Strategy       piersearch.Strategy
	Timeout        time.Duration // Gnutella timeout before PIER re-query (default 30s)
	// GnutellaMaxTTL bounds the flooding horizon of the overlay (default
	// 2): queries cover a fraction of the network, as in the real
	// Gnutella, so rare items can be missed.
	GnutellaMaxTTL int
	// ProactiveRareTerm enables the full-deployment path §7 anticipates:
	// each hybrid ultrapeer publishes the files of its own subtree whose
	// rarest term has instance frequency <= this threshold (TF scheme over
	// long-observed traffic). Zero disables it; default 25.
	ProactiveRareTerm int
	Seed              int64
}

func (c DeployConfig) normalize() DeployConfig {
	if c.Ultrapeers <= 0 {
		c.Ultrapeers = 400
	}
	if c.GnutellaMaxTTL <= 0 {
		c.GnutellaMaxTTL = 2
	}
	if c.Hosts <= 0 {
		c.Hosts = c.Ultrapeers * 30
	}
	if c.HybridCount <= 0 {
		c.HybridCount = 50
	}
	if c.HybridCount > c.Ultrapeers {
		c.HybridCount = c.Ultrapeers
	}
	if c.WarmupQueries <= 0 {
		c.WarmupQueries = 120
	}
	if c.MeasureQueries <= 0 {
		c.MeasureQueries = 100
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.ProactiveRareTerm == 0 {
		c.ProactiveRareTerm = 25
	}
	return c
}

// DeployResult is the §7 measurement set.
type DeployResult struct {
	Strategy piersearch.Strategy

	// D1: publishing.
	FilesPublished       int
	AvgPublishBytes      float64 // store traffic per file; paper: ~3.5 KB, 4 KB with InvertedCache
	AvgPublishBytesTotal float64 // including DHT routing lookups

	// D2: latency.
	GnutellaAnswered   int
	PierAnswered       int
	Unanswered         int
	AvgGnutellaLatency time.Duration // queries answered by flooding
	AvgHybridLatency   time.Duration // timeout + PIER, for PIER-answered
	AvgLateGnutella    time.Duration // when flooding would answer after timeout (paper: ~65 s)

	// D3: per-query DHT bandwidth for the PIER path.
	AvgPierQueryBytes float64 // total incl. Item fetches
	AvgPierMatchBytes float64 // fileID-matching phase; paper: ~850 B cache / ~20 KB join

	// D4: zero-result reduction.
	ZeroBaseline int     // queries Gnutella alone never answers
	ZeroHybrid   int     // still unanswered with the hybrid
	ReductionPct float64 // paper: 18% observed, 66% potential
}

// RunDeployment executes the §7 deployment experiment.
func RunDeployment(cfg DeployConfig) (*DeployResult, error) {
	cfg = cfg.normalize()
	tr := trace.Generate(trace.Config{
		DistinctFiles: cfg.Hosts * 4,
		TargetCopies:  cfg.Hosts * 13,
		Hosts:         cfg.Hosts,
		Vocabulary:    cfg.Hosts,
		Queries:       cfg.WarmupQueries + cfg.MeasureQueries,
		Seed:          cfg.Seed,
	})
	topo, err := gnutella.NewTopology(gnutella.TopologyConfig{
		Ultrapeers:    cfg.Ultrapeers,
		Hosts:         cfg.Hosts,
		NewClientFrac: 0.2,
		Seed:          cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	lib := gnutella.NewLibrary(topo, piersearch.Tokenizer{})
	for rank, hosts := range tr.Placement(cfg.Hosts) {
		for _, h := range hosts {
			lib.AddFile(int(h), gnutella.SharedFile{Name: tr.Files[rank].Name, Size: 3_500_000})
		}
	}
	gnet := gnutella.NewNetwork(topo, lib, gnutella.NetworkConfig{DynamicQuery: true, MaxTTL: cfg.GnutellaMaxTTL, Seed: cfg.Seed + 2})
	cluster, err := dht.NewCluster(cfg.HybridCount, cfg.Seed+3, dht.Config{K: 8, Alpha: 2, Replicate: 2})
	if err != nil {
		return nil, err
	}
	hybrids := make([]*hybrid.Ultrapeer, cfg.HybridCount)
	for i := range hybrids {
		engine := pier.NewEngine(cluster.Nodes[i], pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engine)
		hybrids[i] = hybrid.NewUltrapeer(gnutella.HostID(i), gnet, lib, engine, hybrid.UltrapeerConfig{
			GnutellaTimeout: cfg.Timeout,
			Strategy:        cfg.Strategy,
			Seed:            cfg.Seed + 4,
		})
	}

	// Warm-up: hybrid ultrapeers snoop forwarded query results; small
	// result sets are identified as rare (QRS) and published into the DHT.
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	res := &DeployResult{Strategy: cfg.Strategy}
	pubBefore := cluster.Net.Stats()
	for _, q := range tr.Queries[:cfg.WarmupQueries] {
		h := hybrids[rng.Intn(len(hybrids))]
		reach := gnutella.ReachSet(topo, h.Host, 4)
		refs := gnutella.MatchesWithin(lib, reach, q.Terms)
		if err := h.ObserveResults(refs); err != nil {
			return nil, err
		}
	}
	// Proactive path: each hybrid ultrapeer publishes the rare files of
	// its own subtree, identified by the TF scheme over observed traffic.
	if cfg.ProactiveRareTerm > 0 {
		termFreq := tr.TermInstanceFrequency()
		tk := piersearch.Tokenizer{}
		for _, h := range hybrids {
			for _, host := range topo.HostsOf(h.Host) {
				for _, sf := range lib.Files(host) {
					rare := false
					for _, term := range tk.Tokenize(sf.Name) {
						if termFreq[term] <= cfg.ProactiveRareTerm {
							rare = true
							break
						}
					}
					if !rare {
						continue
					}
					if err := h.PublishLocal(host); err != nil {
						return nil, err
					}
					break // PublishLocal covers the whole host
				}
			}
		}
	}
	var pubBytes, pubCount int
	for _, h := range hybrids {
		pubBytes += h.PublishBytes
		pubCount += h.PublishCount
	}
	res.FilesPublished = pubCount
	if pubCount > 0 {
		pubTraffic := cluster.Net.Stats().Sub(pubBefore)
		res.AvgPublishBytes = float64(pubTraffic.ByKind["store"].Bytes) / float64(pubCount)
		res.AvgPublishBytesTotal = float64(pubTraffic.Bytes) / float64(pubCount)
	}

	// Measurement: leaf queries through hybrid ultrapeers.
	var gnuLatSum, hybLatSum, lateSum time.Duration
	var lateN int
	var pierBytes uint64
	var matchBytes int
	for _, q := range tr.Queries[cfg.WarmupQueries:] {
		i := rng.Intn(len(hybrids))
		h := hybrids[i]
		before := cluster.Net.Stats()
		out, err := h.QueryContext(cluster.Nodes[i].Context(), q.Text, q.Terms)
		if err != nil {
			return nil, err
		}
		switch out.Source {
		case hybrid.SourceGnutella:
			res.GnutellaAnswered++
			gnuLatSum += out.FirstLatency
		case hybrid.SourcePIER:
			res.PierAnswered++
			hybLatSum += out.FirstLatency
			pierBytes += cluster.Net.Stats().Sub(before).Bytes
			matchBytes += out.PierStats.MatchBytes
			if out.GnutellaLatency > 0 {
				lateSum += out.GnutellaLatency
				lateN++
			}
		default:
			res.Unanswered++
			if out.GnutellaResults == 0 {
				res.ZeroBaseline++
				res.ZeroHybrid++
			}
		}
		if out.Source == hybrid.SourcePIER && out.GnutellaResults == 0 {
			res.ZeroBaseline++ // Gnutella alone would have answered nothing
		}
	}
	if res.GnutellaAnswered > 0 {
		res.AvgGnutellaLatency = gnuLatSum / time.Duration(res.GnutellaAnswered)
	}
	if res.PierAnswered > 0 {
		res.AvgHybridLatency = hybLatSum / time.Duration(res.PierAnswered)
		res.AvgPierQueryBytes = float64(pierBytes) / float64(res.PierAnswered)
		res.AvgPierMatchBytes = float64(matchBytes) / float64(res.PierAnswered)
	}
	if lateN > 0 {
		res.AvgLateGnutella = lateSum / time.Duration(lateN)
	}
	if res.ZeroBaseline > 0 {
		res.ReductionPct = 100 * float64(res.ZeroBaseline-res.ZeroHybrid) / float64(res.ZeroBaseline)
	}
	return res, nil
}
