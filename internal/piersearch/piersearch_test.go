package piersearch

import (
	"fmt"
	"os"
	"testing"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/store"
)

type env struct {
	cluster *dht.Cluster
	engines []*pier.Engine
}

func newEnv(t testing.TB, n int) *env {
	t.Helper()
	return newEnvWith(t, n, dht.Config{}, nil)
}

// newSequentialEnv is newEnv with one lookup probe in flight at a time
// (Alpha 1), for tests that compare byte counts. A FindValue lookup ends
// once Replicate holders have answered, but every probe already in flight
// at that moment still completes and ships the key's whole value set; with
// the default α = 3 how many of those there are depends on goroutine
// timing, and a fetch's bytes vary by up to 2× run to run.
func newSequentialEnv(t testing.TB, n int) *env {
	t.Helper()
	return newEnvWith(t, n, dht.Config{Alpha: 1}, nil)
}

// newEnvWith builds an n-node env over cfg. workers[i] is node i's
// pier.Config.Workers; a node missing from it runs the engine default.
func newEnvWith(t testing.TB, n int, cfg dht.Config, workers map[int]int) *env {
	t.Helper()
	// PIERSEARCH_STORE=disk runs the suite over the log-structured disk
	// engine, one store directory per node.
	if os.Getenv("PIERSEARCH_STORE") == "disk" {
		cfg.NewStorage = store.DiskFactory(t.TempDir(), store.Options{})
	}
	cluster, err := dht.NewCluster(n, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() }) //nolint:errcheck // test teardown
	e := &env{cluster: cluster}
	for i, node := range cluster.Nodes {
		eng := pier.NewEngine(node, pier.Config{OrderBySelectivity: true, Workers: workers[i]})
		RegisterSchemas(eng)
		e.engines = append(e.engines, eng)
	}
	return e
}

func (e *env) publisher(i int) *Publisher {
	return NewPublisher(e.engines[i], ModeBoth, Tokenizer{})
}

func (e *env) search(i int) *Search {
	return NewSearch(e.engines[i], Tokenizer{})
}

func testFiles() []File {
	return []File{
		{Name: "Madonna - Like a Prayer.mp3", Size: 4_100_000, Host: "10.0.0.1", Port: 6346},
		{Name: "Madonna - Like a Prayer.mp3", Size: 4_100_000, Host: "10.0.0.2", Port: 6346},
		{Name: "Madonna - Music.mp3", Size: 3_900_000, Host: "10.0.0.3", Port: 6346},
		{Name: "Obscure Garage Band - Demo Tape.mp3", Size: 2_000_000, Host: "10.0.0.4", Port: 6346},
		{Name: "Beatles - Yesterday.mp3", Size: 2_400_000, Host: "10.0.0.5", Port: 6346},
	}
}

func publishAll(t testing.TB, e *env) {
	t.Helper()
	for i, f := range testFiles() {
		if _, err := e.publisher(i % len(e.engines)).PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
}

func names(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.File.Name + "@" + r.File.Host
	}
	return out
}

func TestFileIDDistinguishesReplicasAndIsStable(t *testing.T) {
	f1 := File{Name: "a.mp3", Size: 1, Host: "h1", Port: 1}
	f2 := File{Name: "a.mp3", Size: 1, Host: "h2", Port: 1}
	if f1.ID() == f2.ID() {
		t.Error("replicas on different hosts share a fileID")
	}
	if f1.ID() != f1.ID() {
		t.Error("fileID not deterministic")
	}
	if f1.ID().String() == "" || len(f1.ID().String()) != 40 {
		t.Error("fileID hex form wrong")
	}
}

func TestItemTupleRoundTrip(t *testing.T) {
	f := File{Name: "x.mp3", Size: 123, Host: "1.2.3.4", Port: 6346}
	got, id, err := FileFromItemTuple(f.ItemTuple())
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Errorf("round trip: %+v != %+v", got, f)
	}
	if id != f.ID() {
		t.Error("fileID changed in round trip")
	}
	if _, _, err := FileFromItemTuple(pier.Tuple{pier.String("bad")}); err == nil {
		t.Error("malformed tuple accepted")
	}
}

func TestSearchBothStrategiesFindAllReplicas(t *testing.T) {
	e := newEnv(t, 24)
	publishAll(t, e)
	for _, strat := range []Strategy{StrategyJoin, StrategyCache} {
		results, stats, err := e.search(9).Query("madonna prayer", strat, 0)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(results) != 2 {
			t.Fatalf("%v: results = %v, want both replicas", strat, names(results))
		}
		for _, r := range results {
			if r.File.Name != "Madonna - Like a Prayer.mp3" {
				t.Errorf("%v: wrong file %q", strat, r.File.Name)
			}
		}
		if stats.Keywords != 2 {
			t.Errorf("%v: keywords = %d", strat, stats.Keywords)
		}
		if results, _, err := e.search(3).Query("madonna", strat, 0); err != nil || len(results) != 3 {
			t.Errorf("%v: madonna results = %v, %v; want 3", strat, names(results), err)
		}
	}
}

func TestSearchStrategiesAgree(t *testing.T) {
	e := newEnv(t, 24)
	publishAll(t, e)
	for _, q := range []string{"madonna", "madonna music", "beatles yesterday", "obscure demo", "prayer"} {
		a, _, err := e.search(3).Query(q, StrategyJoin, 0)
		if err != nil {
			t.Fatalf("join %q: %v", q, err)
		}
		b, _, err := e.search(3).Query(q, StrategyCache, 0)
		if err != nil {
			t.Fatalf("cache %q: %v", q, err)
		}
		an, bn := names(a), names(b)
		if len(an) != len(bn) {
			t.Fatalf("%q: join %v != cache %v", q, an, bn)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("%q: join %v != cache %v", q, an, bn)
			}
		}
	}
}

func TestSearchRareItemPerfectRecall(t *testing.T) {
	// The headline property: a DHT index finds a single-replica item that
	// flooding would likely miss.
	e := newEnv(t, 32)
	publishAll(t, e)
	results, _, err := e.search(20).Query("obscure garage demo", StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].File.Host != "10.0.0.4" {
		t.Fatalf("rare item results = %v", names(results))
	}
}

func TestSearchNoMatches(t *testing.T) {
	e := newEnv(t, 16)
	publishAll(t, e)
	results, stats, err := e.search(0).Query("nonexistent keywords", StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || stats.Matches != 0 {
		t.Errorf("results = %v, matches = %d", names(results), stats.Matches)
	}
}

func TestSearchStopwordOnlyQueryFails(t *testing.T) {
	e := newEnv(t, 8)
	if _, _, err := e.search(0).Query("the of mp3", StrategyJoin, 0); err == nil {
		t.Error("stopword-only query accepted")
	}
	if _, _, err := e.search(0).Query("", StrategyCache, 0); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSearchLimit(t *testing.T) {
	e := newEnv(t, 24)
	for i := 0; i < 10; i++ {
		f := File{Name: fmt.Sprintf("shared keyword track%02d.mp3", i), Size: 1000, Host: fmt.Sprintf("10.1.0.%d", i), Port: 6346}
		if _, err := e.publisher(i % len(e.engines)).PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, strat := range []Strategy{StrategyJoin, StrategyCache} {
		results, _, err := e.search(5).Query("shared keyword", strat, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 3 {
			t.Errorf("%v: limit 3 returned %d", strat, len(results))
		}
	}
}

func TestPublishStatsAndModes(t *testing.T) {
	e := newEnv(t, 16)
	f := File{Name: "one two three.mp3", Size: 1, Host: "h", Port: 1}

	sInv, err := NewPublisher(e.engines[0], ModeInverted, Tokenizer{}).PublishFile(f)
	if err != nil {
		t.Fatal(err)
	}
	// 3 keywords -> 1 Item + 3 Inverted.
	if sInv.Tuples != 4 || sInv.Keywords != 3 {
		t.Errorf("inverted stats = %+v", sInv)
	}

	f2 := File{Name: "one two three.mp3", Size: 1, Host: "h2", Port: 1}
	sCache, err := NewPublisher(e.engines[1], ModeInvertedCache, Tokenizer{}).PublishFile(f2)
	if err != nil {
		t.Fatal(err)
	}
	if sCache.Tuples != 4 {
		t.Errorf("cache stats = %+v", sCache)
	}
	// InvertedCache carries the filename per entry: more bytes (§7's
	// 3.5 KB -> 4 KB observation, directionally).
	if sCache.Bytes <= 0 || sInv.Bytes <= 0 {
		t.Fatal("no publish bytes recorded")
	}

	f3 := File{Name: "one two three.mp3", Size: 1, Host: "h3", Port: 1}
	sBoth, err := NewPublisher(e.engines[2], ModeBoth, Tokenizer{}).PublishFile(f3)
	if err != nil {
		t.Fatal(err)
	}
	if sBoth.Tuples != 7 {
		t.Errorf("both stats = %+v", sBoth)
	}
}

func TestPublishUnindexableFile(t *testing.T) {
	e := newEnv(t, 8)
	if _, err := e.publisher(0).PublishFile(File{Name: "...", Size: 1, Host: "h", Port: 1}); err == nil {
		t.Error("unindexable file accepted")
	}
}

func TestCacheQueryCheaperForMultiKeyword(t *testing.T) {
	// §7: with InvertedCache the query goes to one node (~850 B); the
	// distributed join ships posting lists (~20 KB). Verify the ordering.
	e := newSequentialEnv(t, 32)
	for i := 0; i < 40; i++ {
		f := File{Name: fmt.Sprintf("britney spears hit%02d.mp3", i), Size: 1000, Host: fmt.Sprintf("10.2.0.%d", i), Port: 6346}
		if _, err := e.publisher(i % len(e.engines)).PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	net := e.cluster.Net

	before := net.Stats()
	if _, _, err := e.search(3).Query("britney spears", StrategyJoin, 0); err != nil {
		t.Fatal(err)
	}
	joinBytes := net.Stats().Sub(before).Bytes

	before = net.Stats()
	if _, _, err := e.search(3).Query("britney spears", StrategyCache, 0); err != nil {
		t.Fatal(err)
	}
	cacheBytes := net.Stats().Sub(before).Bytes

	if cacheBytes >= joinBytes {
		t.Errorf("cache bytes %d >= join bytes %d", cacheBytes, joinBytes)
	}
}

func TestSearchSurvivesChurn(t *testing.T) {
	e := newEnv(t, 40)
	publishAll(t, e)
	// Remove a quarter of the nodes; replication should preserve most
	// results for a popular query.
	for i := 0; i < 10; i++ {
		e.cluster.RemoveNode(len(e.cluster.Nodes) - 1)
	}
	results, _, err := e.search(2).Query("madonna", StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Error("all results lost after 25% churn")
	}
}

func BenchmarkPublish(b *testing.B) {
	e := newEnv(b, 32)
	pub := e.publisher(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := File{Name: fmt.Sprintf("artist%02d album track%03d.mp3", i%50, i), Size: int64(i), Host: "10.0.0.9", Port: 6346}
		if _, err := pub.PublishFile(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchJoin(b *testing.B) {
	e := newEnv(b, 32)
	for i := 0; i < 100; i++ {
		f := File{Name: fmt.Sprintf("artist%02d common track%03d.mp3", i%10, i), Size: int64(i), Host: "10.0.0.9", Port: 6346}
		if _, err := e.publisher(i % 32).PublishFile(f); err != nil {
			b.Fatal(err)
		}
	}
	s := e.search(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(fmt.Sprintf("artist%02d common", i%10), StrategyJoin, 0)
	}
}

func BenchmarkSearchCache(b *testing.B) {
	e := newEnv(b, 32)
	for i := 0; i < 100; i++ {
		f := File{Name: fmt.Sprintf("artist%02d common track%03d.mp3", i%10, i), Size: int64(i), Host: "10.0.0.9", Port: 6346}
		if _, err := e.publisher(i % 32).PublishFile(f); err != nil {
			b.Fatal(err)
		}
	}
	s := e.search(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(fmt.Sprintf("artist%02d common", i%10), StrategyCache, 0)
	}
}
