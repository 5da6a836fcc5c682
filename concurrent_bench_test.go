package bench

// Sequential-vs-concurrent benchmarks for the query/publish pipeline over
// a dht.LocalNetwork whose links impose wall-clock latency (SetLatency).
// Unlike the figure benchmarks above, which count messages over the
// synchronous LocalNetwork, these measure wall-clock time: every RPC pays a
// sampled one-way delay in real time, so overlapping round-trips is the
// only way to go faster.
//
// TestConcurrentJoinSpeedup pins the headline acceptance number: the
// 3-keyword StrategyJoin query must run at least 2x faster with 16 workers
// than with one, while shipping exactly the same postings.

import (
	"fmt"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/simnet"
)

// rtEnv is one latency-bearing cluster with PIERSearch deployed on it.
type rtEnv struct {
	engines []*pier.Engine
}

// newRTEnv builds a 16-node cluster whose engines run with the
// given worker bound, seeds the corpus at zero latency, then switches the
// links to oneWay delay. The corpus gives a 3-keyword query ("alpha beta
// gamma") 16 matching files plus a long non-matching tail on the first
// posting list, so the Bloom pre-join has something to prune.
func newRTEnv(tb testing.TB, workers int, oneWay time.Duration) *rtEnv {
	tb.Helper()
	return newRTEnvWith(tb, workers, oneWay, dht.Config{K: 8})
}

// newRTEnvWith is newRTEnv over an explicit DHT configuration.
func newRTEnvWith(tb testing.TB, workers int, oneWay time.Duration, cfg dht.Config) *rtEnv {
	tb.Helper()
	c, err := dht.NewCluster(16, 11, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	env := &rtEnv{}
	for _, node := range c.Nodes {
		e := pier.NewEngine(node, pier.Config{OrderBySelectivity: true, Workers: workers})
		piersearch.RegisterSchemas(e)
		env.engines = append(env.engines, e)
	}
	for _, f := range rtCorpus() {
		pub := piersearch.NewPublisher(env.engines[int(f.Size)%16], piersearch.ModeBoth, piersearch.Tokenizer{})
		if _, err := pub.PublishFile(f); err != nil {
			tb.Fatal(err)
		}
	}
	c.Net.SetLatency(simnet.Constant(oneWay))
	return env
}

func rtCorpus() []piersearch.File {
	var files []piersearch.File
	add := func(name string) {
		files = append(files, piersearch.File{
			Name: name + ".mp3",
			Size: int64(1_000_000 + len(files)),
			Host: fmt.Sprintf("10.0.%d.%d", len(files)/250, len(files)%250),
			Port: 6346,
		})
	}
	for i := 0; i < 16; i++ {
		add(fmt.Sprintf("alpha beta gamma delta hit%02d", i)) // matches 2-4 kw queries
	}
	// Forty exclusive postings per keyword: whatever list the join starts
	// from, most of it cannot survive the other keywords, so the Bloom
	// pre-join has real traffic to save.
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("alpha solo%02d", i))
		add(fmt.Sprintf("beta only%02d", i))
		add(fmt.Sprintf("gamma tail%02d", i))
	}
	return files
}

func (env *rtEnv) search(i int) *piersearch.Search {
	return piersearch.NewSearch(env.engines[i], piersearch.Tokenizer{})
}

// queryOnce runs one query and returns its stats.
func (env *rtEnv) queryOnce(tb testing.TB, query string) piersearch.SearchStats {
	tb.Helper()
	results, stats, err := env.search(3).Query(query, piersearch.StrategyJoin, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if len(results) == 0 {
		tb.Fatalf("query %q returned no results", query)
	}
	return stats
}

// TestConcurrentJoinSpeedup is the acceptance check for the concurrent
// pipeline: same topology, same corpus, same 3-keyword join — once through
// engines configured sequential (Workers: 1), once concurrent — comparing
// wall-clock latency. Latency dominates compute by orders of magnitude
// here, so the ratio is structural, not noisy: the sequential run pays ~3
// serial probe round-trips and 16 serial Item fetches that the concurrent
// run overlaps. Both run the one chain join, so the postings it ships and
// the answers it returns are identical; matching-phase bytes are not
// compared, since the α = 3 value lookups ship a timing-dependent number
// of replies.
func TestConcurrentJoinSpeedup(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	const query = "alpha beta gamma"

	seqEnv := newRTEnv(t, 1, oneWay)
	concEnv := newRTEnv(t, 16, oneWay)

	// Best of two runs per variant to damp scheduler noise.
	seq := seqEnv.queryOnce(t, query)
	if s := seqEnv.queryOnce(t, query); s.Wall < seq.Wall {
		seq = s
	}
	conc := concEnv.queryOnce(t, query)
	if s := concEnv.queryOnce(t, query); s.Wall < conc.Wall {
		conc = s
	}

	t.Logf("sequential: wall=%v matchBytes=%d shipped=%d inFlight=%d",
		seq.Wall, seq.MatchBytes, seq.PostingShipped, seq.MaxInFlight)
	t.Logf("concurrent: wall=%v matchBytes=%d shipped=%d inFlight=%d",
		conc.Wall, conc.MatchBytes, conc.PostingShipped, conc.MaxInFlight)

	if seq.Matches != conc.Matches || conc.Matches != 16 {
		t.Errorf("matches: sequential %d, concurrent %d, want 16 each", seq.Matches, conc.Matches)
	}
	if ratio := float64(seq.Wall) / float64(conc.Wall); ratio < 2.0 {
		t.Errorf("concurrent query %.2fx faster than sequential, want >= 2x (seq %v, conc %v)",
			ratio, seq.Wall, conc.Wall)
	}
	if conc.MaxInFlight < 2 {
		t.Errorf("concurrent MaxInFlight = %d, want >= 2", conc.MaxInFlight)
	}
	if conc.PostingShipped != seq.PostingShipped {
		t.Errorf("PostingShipped: concurrent %d, sequential %d, want equal", conc.PostingShipped, seq.PostingShipped)
	}
}

// TestConcurrentPublishSpeedup is the publish-side counterpart: one file
// expands into 1 Item + 5 Inverted + 5 InvertedCache tuples, whose DHT
// puts are independent and overlap under the worker pool.
func TestConcurrentPublishSpeedup(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	seqEnv := newRTEnv(t, 1, oneWay)
	concEnv := newRTEnv(t, 16, oneWay)

	f := piersearch.File{Name: "epsilon zeta eta theta iota.mp3", Size: 42, Host: "10.9.9.9", Port: 6346}
	seqStats, err := piersearch.NewPublisher(seqEnv.engines[2], piersearch.ModeBoth, piersearch.Tokenizer{}).PublishFile(f)
	if err != nil {
		t.Fatal(err)
	}
	concStats, err := piersearch.NewPublisher(concEnv.engines[2], piersearch.ModeBoth, piersearch.Tokenizer{}).PublishFile(f)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("sequential: wall=%v tuples=%d", seqStats.Wall, seqStats.Tuples)
	t.Logf("concurrent: wall=%v tuples=%d inFlight=%d", concStats.Wall, concStats.Tuples, concStats.MaxInFlight)

	if seqStats.Tuples != concStats.Tuples {
		t.Errorf("tuples: sequential %d != concurrent %d", seqStats.Tuples, concStats.Tuples)
	}
	if ratio := float64(seqStats.Wall) / float64(concStats.Wall); ratio < 2.0 {
		t.Errorf("concurrent publish %.2fx faster than sequential, want >= 2x (seq %v, conc %v)",
			ratio, seqStats.Wall, concStats.Wall)
	}
	if concStats.MaxInFlight < 2 {
		t.Errorf("concurrent MaxInFlight = %d, want >= 2", concStats.MaxInFlight)
	}
}

// BenchmarkConcurrentPublish times publishing one 5-keyword file through
// both index layouts, sequential vs pooled.
func BenchmarkConcurrentPublish(b *testing.B) {
	const oneWay = 2 * time.Millisecond
	for _, mode := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"workers-16", 16}} {
		b.Run(mode.name, func(b *testing.B) {
			env := newRTEnv(b, mode.workers, oneWay)
			pub := piersearch.NewPublisher(env.engines[1], piersearch.ModeBoth, piersearch.Tokenizer{})
			var stats piersearch.PublishStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := piersearch.File{
					Name: fmt.Sprintf("kappa lambda mu nu xi %06d.mp3", i),
					Size: int64(i + 1),
					Host: "10.8.8.8",
					Port: 6346,
				}
				s, err := pub.PublishFile(f)
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Wall.Milliseconds()), "wall-ms/file")
			b.ReportMetric(float64(stats.MaxInFlight), "max-in-flight")
		})
	}
}

// BenchmarkConcurrentQuery times StrategyJoin queries of 2-4 keywords,
// sequential vs concurrent, over 2ms one-way links.
func BenchmarkConcurrentQuery(b *testing.B) {
	const oneWay = 2 * time.Millisecond
	queries := map[int]string{
		2: "alpha beta",
		3: "alpha beta gamma",
		4: "alpha beta gamma delta",
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"workers-16", 16}} {
		env := newRTEnv(b, mode.workers, oneWay)
		for kw := 2; kw <= 4; kw++ {
			b.Run(fmt.Sprintf("%s/keywords-%d", mode.name, kw), func(b *testing.B) {
				var stats piersearch.SearchStats
				for i := 0; i < b.N; i++ {
					stats = env.queryOnce(b, queries[kw])
				}
				b.ReportMetric(float64(stats.Wall.Milliseconds()), "wall-ms")
				b.ReportMetric(float64(stats.MatchBytes), "match-bytes")
				b.ReportMetric(float64(stats.PostingShipped), "postings-shipped")
				b.ReportMetric(float64(stats.MaxInFlight), "max-in-flight")
			})
		}
	}
}
