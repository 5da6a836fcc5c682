// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (README's "Paper section → package
// map" is the index; ROADMAP item 14 tracks paper-vs-measured results).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks share one study environment (built lazily) and time
// the per-figure computation; headline values are attached as benchmark
// metrics so `go test -bench` output doubles as the results table.
// Deployment benchmarks run the full §7 experiment.
package bench

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/experiments"
	"piersearch/internal/gnutella"
	"piersearch/internal/metrics"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
)

// benchScale sizes the shared study environment. 0.12 keeps the whole
// bench suite in tens of seconds; raise it (or run the cmd/ binaries with
// -scale 1) for paper-scale numbers.
const benchScale = 0.12

var (
	envOnce sync.Once
	env     *experiments.StudyEnv
	envErr  error
)

func studyEnv(b *testing.B) *experiments.StudyEnv {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = experiments.NewStudyEnv(experiments.StudyConfig{Scale: benchScale, Seed: 1})
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// BenchmarkFigure4 regenerates Figure 4 (result-set size vs average
// replication factor).
func BenchmarkFigure4(b *testing.B) {
	e := studyEnv(b)
	var s metrics.Series
	for i := 0; i < b.N; i++ {
		s = experiments.Figure4(e)
	}
	if len(s.Points) > 0 {
		b.ReportMetric(s.Points[len(s.Points)-1].Y, "max-bucket-results")
	}
}

// BenchmarkFigure5 regenerates Figure 5 (result-size CDFs, 1 node vs
// Union-of-30).
func BenchmarkFigure5(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure5(e)
	}
	b.ReportMetric(series[0].YAt(10), "pct<=10-single")
	b.ReportMetric(series[1].YAt(10), "pct<=10-union30")
}

// BenchmarkFigure6 regenerates Figure 6 (CDFs <= 20 results for growing
// vantage unions).
func BenchmarkFigure6(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure6(e)
	}
	b.ReportMetric(series[0].YAt(0), "pct-zero-single")
	b.ReportMetric(series[len(series)-1].YAt(0), "pct-zero-union30")
}

// BenchmarkGnutellaAggregates regenerates the §4.2 headline numbers
// (paper: 41% <=10 / 18% zero single node; 27% / 6% union; >=66%
// potential reduction).
func BenchmarkGnutellaAggregates(b *testing.B) {
	e := studyEnv(b)
	var a experiments.GnutellaAggregates
	for i := 0; i < b.N; i++ {
		a = experiments.Aggregates(e)
	}
	b.ReportMetric(a.PctAtMost10Single, "pct<=10-single")
	b.ReportMetric(a.PctZeroSingle, "pct-zero-single")
	b.ReportMetric(a.PctZeroUnion, "pct-zero-union")
	b.ReportMetric(a.ZeroReductionPct, "zero-reduction-pct")
}

// BenchmarkFigure7 regenerates Figure 7 (result size vs first-result
// latency; paper: ~73 s for single-result queries, ~6 s beyond 150).
func BenchmarkFigure7(b *testing.B) {
	e := studyEnv(b)
	var s metrics.Series
	for i := 0; i < b.N; i++ {
		s = experiments.Figure7(e)
	}
	if len(s.Points) > 1 {
		b.ReportMetric(s.Points[0].Y, "rare-first-result-s")
		b.ReportMetric(s.Points[len(s.Points)-1].Y, "popular-first-result-s")
	}
}

// BenchmarkFigure8 regenerates Figure 8 (flooding messages vs ultrapeers
// visited, diminishing returns).
func BenchmarkFigure8(b *testing.B) {
	var s metrics.Series
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.Figure8(experiments.Figure8Config{Ultrapeers: 20000, Sources: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := s.Points[len(s.Points)-1]
	b.ReportMetric(last.X, "kmessages-at-max-ttl")
	b.ReportMetric(last.Y, "ultrapeers-visited")
}

// BenchmarkFigure9 regenerates Figure 9 (PF-threshold vs replica
// threshold, Equation 2).
func BenchmarkFigure9(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure9(e)
	}
	b.ReportMetric(series[1].YAt(2), "pf-thr2-h15")
}

// BenchmarkFigure10 regenerates Figure 10 (publishing overhead vs replica
// threshold; paper anchor: 23% at threshold 1).
func BenchmarkFigure10(b *testing.B) {
	e := studyEnv(b)
	var s metrics.Series
	for i := 0; i < b.N; i++ {
		s = experiments.Figure10(e)
	}
	b.ReportMetric(s.YAt(1), "pct-items-thr1")
}

// BenchmarkFigure11 regenerates Figure 11 (average QR vs replica
// threshold; paper: 47/52/61% at threshold 1).
func BenchmarkFigure11(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure11(e)
	}
	b.ReportMetric(series[0].YAt(1), "qr-thr1-h5")
	b.ReportMetric(series[1].YAt(1), "qr-thr1-h15")
	b.ReportMetric(series[2].YAt(1), "qr-thr1-h30")
}

// BenchmarkFigure12 regenerates Figure 12 (average QDR vs replica
// threshold; paper: ~93% at threshold 2, horizon 15%).
func BenchmarkFigure12(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure12(e)
	}
	b.ReportMetric(series[1].YAt(2), "qdr-thr2-h15")
}

// BenchmarkFigure13 regenerates Figure 13 (schemes on average QR vs
// publishing budget, horizon 5%).
func BenchmarkFigure13(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure13(e)
	}
	for _, s := range series {
		switch s.Name {
		case "Perfect":
			b.ReportMetric(s.YAt(50), "perfect-qr-at-50pct")
		case "Random":
			b.ReportMetric(s.YAt(50), "random-qr-at-50pct")
		}
	}
}

// BenchmarkFigure14 regenerates Figure 14 (schemes on average QDR).
func BenchmarkFigure14(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure14(e)
	}
	b.ReportMetric(series[0].YAt(50), "perfect-qdr-at-50pct")
}

// BenchmarkFigure15 regenerates Figure 15 (SAM sampling sweep).
func BenchmarkFigure15(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.Figure15(e)
	}
	b.ReportMetric(series[1].YAt(50), "sam15-qr-at-50pct")
}

// BenchmarkPostingListShipping validates the §5 claim that <=10-result
// queries ship ~7x fewer posting entries through the distributed join.
func BenchmarkPostingListShipping(b *testing.B) {
	e := studyEnv(b)
	var res experiments.PostingShipResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.PostingListShipping(e, 32, 8000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Ratio, "all/rare-shipping-ratio")
	b.ReportMetric(res.AvgShippedRare, "rare-entries/query")
}

// --- §7 deployment benchmarks -----------------------------------------------

var (
	deployOnce   sync.Once
	deployCache  *experiments.DeployResult
	deployJoin   *experiments.DeployResult
	deployErr    error
	deployConfig = experiments.DeployConfig{
		Ultrapeers:     400,
		HybridCount:    50,
		WarmupQueries:  100,
		MeasureQueries: 80,
		Seed:           1,
	}
)

func deployment(b *testing.B) (*experiments.DeployResult, *experiments.DeployResult) {
	b.Helper()
	deployOnce.Do(func() {
		cfg := deployConfig
		cfg.Strategy = piersearch.StrategyCache
		deployCache, deployErr = experiments.RunDeployment(cfg)
		if deployErr != nil {
			return
		}
		cfg.Strategy = piersearch.StrategyJoin
		deployJoin, deployErr = experiments.RunDeployment(cfg)
	})
	if deployErr != nil {
		b.Fatal(deployErr)
	}
	return deployCache, deployJoin
}

// BenchmarkDeployPublish reports D1: publishing cost per file (paper:
// ~3.5 KB plain, ~4 KB with InvertedCache).
func BenchmarkDeployPublish(b *testing.B) {
	cache, join := deployment(b)
	for i := 0; i < b.N; i++ {
		_ = cache.AvgPublishBytes
	}
	b.ReportMetric(join.AvgPublishBytes, "bytes/file-inverted")
	b.ReportMetric(cache.AvgPublishBytes, "bytes/file-cache")
	b.ReportMetric(float64(cache.FilesPublished), "files-published")
}

// BenchmarkDeployLatency reports D2: first-result latencies (paper: PIER
// answers ~10 s cache / ~12 s join after the 30 s timeout; Gnutella's own
// first result for those queries averaged ~65 s).
func BenchmarkDeployLatency(b *testing.B) {
	cache, join := deployment(b)
	for i := 0; i < b.N; i++ {
		_ = cache.AvgHybridLatency
	}
	b.ReportMetric(cache.AvgGnutellaLatency.Seconds(), "gnutella-latency-s")
	b.ReportMetric(cache.AvgHybridLatency.Seconds(), "hybrid-cache-latency-s")
	b.ReportMetric(join.AvgHybridLatency.Seconds(), "hybrid-join-latency-s")
}

// BenchmarkDeployQueryBandwidth reports D3: per-query PIER bandwidth in
// the fileID-matching phase (paper: ~850 B cache vs ~20 KB join).
func BenchmarkDeployQueryBandwidth(b *testing.B) {
	cache, join := deployment(b)
	for i := 0; i < b.N; i++ {
		_ = cache.AvgPierMatchBytes
	}
	b.ReportMetric(cache.AvgPierMatchBytes, "match-bytes-cache")
	b.ReportMetric(join.AvgPierMatchBytes, "match-bytes-join")
}

// BenchmarkDeployZeroResult reports D4: the reduction in zero-result
// queries the hybrid achieves (paper: 18% observed, 66% potential).
func BenchmarkDeployZeroResult(b *testing.B) {
	cache, _ := deployment(b)
	for i := 0; i < b.N; i++ {
		_ = cache.ReductionPct
	}
	b.ReportMetric(float64(cache.ZeroBaseline), "zero-baseline")
	b.ReportMetric(float64(cache.ZeroHybrid), "zero-hybrid")
	b.ReportMetric(cache.ReductionPct, "reduction-pct")
}

// BenchmarkExtensionHorizonLoad regenerates the §4.3 future-work study:
// recall vs per-query load for deep flooding vs the hybrid.
func BenchmarkExtensionHorizonLoad(b *testing.B) {
	e := studyEnv(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		series = experiments.ExtensionHorizonLoad(e)
	}
	h := series[1].Points[0]
	b.ReportMetric(h.X, "hybrid-load-kmsgs")
	b.ReportMetric(h.Y, "hybrid-qdr")
	deepest := series[0].Points[len(series[0].Points)-1]
	b.ReportMetric(deepest.X, "deep-flood-load-kmsgs")
	b.ReportMetric(deepest.Y, "deep-flood-qdr")
}

// BenchmarkExtensionCostRecall sweeps the Eq. 3-5 cost model.
func BenchmarkExtensionCostRecall(b *testing.B) {
	e := studyEnv(b)
	var s metrics.Series
	for i := 0; i < b.N; i++ {
		s = experiments.ExtensionCostRecall(e, 5)
	}
	b.ReportMetric(s.Points[2].Y, "qdr-thr2")
	b.ReportMetric(s.Points[2].X, "cost-thr2-kmsgs")
}

// BenchmarkAblationTFBloom quantifies the accuracy cost of Bloom-encoding
// the TF scheme's term statistics (§6.3 suggestion).
func BenchmarkAblationTFBloom(b *testing.B) {
	e := studyEnv(b)
	var points []experiments.TFBloomPoint
	for i := 0; i < b.N; i++ {
		points = experiments.TFBloomSweep(e, 0.3)
	}
	b.ReportMetric(points[0].AvgQR, "qr-exact-tf")
	b.ReportMetric(points[1].AvgQR, "qr-bloom-32KiB")
	b.ReportMetric(points[3].AvgQR, "qr-bloom-512B")
	b.ReportMetric(points[len(points)-1].AvgQR, "qr-random")
}

// --- ablations ----------------------------------------------------------------

// The join-order lists: joinWide and joinNarrow hold 3 000 and 1 500
// postings and share one file. Neither list saturates the other's
// pre-join filter, so the list the chain starts from sets what it ships.
const (
	joinWide, joinNarrow       = "joinwide", "joinnarrow"
	joinWideLen, joinNarrowLen = 3000, 1500
)

// ablationEnv builds a small PIER cluster with a skewed posting-list
// workload for the join ablations.
func ablationEnv(b *testing.B, order bool) []*pier.Engine {
	b.Helper()
	cluster, err := dht.NewCluster(24, 3, dht.Config{})
	if err != nil {
		b.Fatal(err)
	}
	engines := make([]*pier.Engine, len(cluster.Nodes))
	for i, node := range cluster.Nodes {
		engines[i] = pier.NewEngine(node, pier.Config{OrderBySelectivity: order})
		piersearch.RegisterSchemas(engines[i])
	}
	pub := func(i int, name string) {
		f := piersearch.File{Name: name, Size: 1000, Host: "10.0.0.1", Port: 6346}
		if _, err := piersearch.NewPublisher(engines[i%24], piersearch.ModeBoth, piersearch.Tokenizer{}).PublishFile(f); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		pub(i, "common artist track"+itoa(i)+".mp3")
	}
	pub(0, "common artist rareterm.mp3")

	// The join-order lists go straight onto their replica sets, as the
	// scale harness places its corpus, so setup sends no message.
	replicate := cluster.Nodes[0].Config().Replicate
	place := func(kw, file string) {
		key, fileID := pier.String(kw), dht.StringID(file)
		id := dht.NamespacedID(piersearch.TableInverted, key.Key())
		data := pier.Tuple{key, pier.Bytes(fileID[:])}.Encode(nil)
		owners := slices.Clone(cluster.Nodes)
		sort.Slice(owners, func(i, j int) bool { return dht.Closer(owners[i].Info().ID, owners[j].Info().ID, id) })
		for _, n := range owners[:replicate] {
			n.LocalPut(id, data)
		}
	}
	for i := 0; i < joinWideLen; i++ {
		place(joinWide, "wide"+itoa(i))
	}
	for i := 0; i < joinNarrowLen; i++ {
		place(joinNarrow, "narrow"+itoa(i))
	}
	place(joinNarrow, "wide0")
	return engines
}

// BenchmarkAblationJoinOrder compares posting entries shipped with and
// without smallest-posting-list-first ordering, joining the wide list
// with the narrow one (the naive chain starts from the wide list). It
// fails when both orders ship the same count: then it measures nothing.
func BenchmarkAblationJoinOrder(b *testing.B) {
	shipped := map[string]int{}
	for _, mode := range []struct {
		name  string
		order bool
	}{{"naive", false}, {"smallest-first", true}} {
		b.Run(mode.name, func(b *testing.B) {
			engines := ablationEnv(b, mode.order)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, stats, err := engines[i%24].ChainJoinConcurrentContext(context.Background(), piersearch.TableInverted,
					[]pier.Value{pier.String(joinWide), pier.String(joinNarrow)}, "fileID", 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(vals) != 1 {
					b.Fatalf("join matched %d files, want 1", len(vals))
				}
				shipped[mode.name] = stats.PostingShipped
			}
			b.ReportMetric(float64(shipped[mode.name]), "entries-shipped")
		})
	}
	if len(shipped) == 2 && shipped["naive"] == shipped["smallest-first"] {
		b.Fatalf("both orders shipped %d entries: the ablation no longer measures ordering", shipped["naive"])
	}
}

// BenchmarkAblationInvertedCache compares per-query bytes of the two §3.2
// plans on a popular two-term query.
func BenchmarkAblationInvertedCache(b *testing.B) {
	engines := ablationEnv(b, true)
	search := piersearch.NewSearch(engines[5], piersearch.Tokenizer{})
	for _, mode := range []struct {
		name  string
		strat piersearch.Strategy
	}{{"join", piersearch.StrategyJoin}, {"cache", piersearch.StrategyCache}} {
		b.Run(mode.name, func(b *testing.B) {
			match := 0
			for i := 0; i < b.N; i++ {
				_, stats, err := search.Query("common artist", mode.strat, 0)
				if err != nil {
					b.Fatal(err)
				}
				match = stats.MatchBytes
			}
			b.ReportMetric(float64(match), "match-bytes")
		})
	}
}

// BenchmarkAblationDynamicQuery compares flooding message counts with
// dynamic querying (iterative deepening) against a fixed full-TTL flood,
// for a popular query satisfied in round one.
func BenchmarkAblationDynamicQuery(b *testing.B) {
	topo, err := gnutella.NewTopology(gnutella.TopologyConfig{Ultrapeers: 400, Hosts: 2400, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	lib := gnutella.NewLibrary(topo, piersearch.Tokenizer{})
	for _, v := range topo.UPAdj[0] {
		lib.AddFile(v, gnutella.SharedFile{Name: "popular anthem.mp3", Size: 1})
	}
	for _, mode := range []struct {
		name    string
		dynamic bool
	}{{"fixed-ttl", false}, {"dynamic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				net := gnutella.NewNetwork(topo, lib, gnutella.NetworkConfig{
					DynamicQuery: mode.dynamic, MaxTTL: 4, DesiredResults: 5, Seed: int64(i),
				})
				q := net.Query(0, []string{"popular", "anthem"})
				net.Sim.Run()
				msgs = q.Messages
			}
			b.ReportMetric(float64(msgs), "messages/query")
		})
	}
}

// BenchmarkAblationDHTParams sweeps Kademlia bucket width K and lookup
// parallelism alpha, reporting lookup traffic.
func BenchmarkAblationDHTParams(b *testing.B) {
	for _, p := range []struct {
		name     string
		k, alpha int
	}{{"k8-a2", 8, 2}, {"k20-a3", 20, 3}, {"k20-a1", 20, 1}} {
		b.Run(p.name, func(b *testing.B) {
			cluster, err := dht.NewCluster(64, 5, dht.Config{K: p.k, Alpha: p.alpha})
			if err != nil {
				b.Fatal(err)
			}
			msgs, hops := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := cluster.Nodes[i%64].LookupContext(context.Background(), dht.StringID(itoa(i)))
				if err != nil {
					b.Fatal(err)
				}
				msgs, hops = stats.Messages, stats.Hops
			}
			b.ReportMetric(float64(msgs), "messages/lookup")
			b.ReportMetric(float64(hops), "hops/lookup")
		})
	}
}

// BenchmarkAblationHybridTimeout sweeps the Gnutella timeout before PIER
// re-query, reporting the hybrid first-result latency for a rare item
// only the DHT holds (§7 discusses this trade-off as future work).
func BenchmarkAblationHybridTimeout(b *testing.B) {
	for _, timeout := range []time.Duration{10 * time.Second, 30 * time.Second, 60 * time.Second} {
		b.Run(timeout.String(), func(b *testing.B) {
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunDeployment(experiments.DeployConfig{
					Ultrapeers:     150,
					HybridCount:    15,
					WarmupQueries:  40,
					MeasureQueries: 30,
					Timeout:        timeout,
					Seed:           9,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgHybridLatency
			}
			b.ReportMetric(lat.Seconds(), "hybrid-latency-s")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
