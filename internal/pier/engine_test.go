package pier

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"piersearch/internal/dht"
	"piersearch/internal/store"
)

// testClusterConfig returns the dht.Config test clusters are built with.
// PIERSEARCH_STORE=disk swaps every node's store for the log-structured
// disk engine, running the whole pier suite through the dht.Storage
// interface against on-disk state (one directory per node).
func testClusterConfig(t testing.TB) dht.Config {
	cfg := dht.Config{}
	if os.Getenv("PIERSEARCH_STORE") == "disk" {
		cfg.NewStorage = store.DiskFactory(t.TempDir(), store.Options{})
	}
	return cfg
}

// invertedSchema mirrors the paper's Inverted(keyword, fileID) relation.
var invertedSchema = MustSchema("Inverted",
	[]Column{{Name: "keyword", Kind: KindString}, {Name: "fileID", Kind: KindBytes}},
	[]string{"keyword", "fileID"}, "keyword")

// cacheSchema mirrors InvertedCache(keyword, fileID, fulltext).
var cacheSchema = MustSchema("InvertedCache",
	[]Column{{Name: "keyword", Kind: KindString}, {Name: "fileID", Kind: KindBytes}, {Name: "fulltext", Kind: KindString}},
	[]string{"keyword", "fileID"}, "keyword")

// itemSchema mirrors Item(fileID, filename, filesize, ipAddress, port).
var itemSchema = MustSchema("Item",
	[]Column{
		{Name: "fileID", Kind: KindBytes},
		{Name: "filename", Kind: KindString},
		{Name: "filesize", Kind: KindInt},
		{Name: "ipAddress", Kind: KindString},
		{Name: "port", Kind: KindInt},
	},
	[]string{"fileID"}, "fileID")

type testEnv struct {
	cluster *dht.Cluster
	engines []*Engine
}

func newTestEnv(t *testing.T, n int, cfg Config) *testEnv {
	t.Helper()
	cluster, err := dht.NewCluster(n, 99, testClusterConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() }) //nolint:errcheck // test teardown
	env := &testEnv{cluster: cluster}
	for _, node := range cluster.Nodes {
		e := NewEngine(node, cfg)
		e.Register(invertedSchema)
		e.Register(cacheSchema)
		e.Register(itemSchema)
		env.engines = append(env.engines, e)
	}
	return env
}

// publishFile publishes Inverted and InvertedCache tuples for a filename
// from the given engine, using the name itself as the fileID for test
// readability.
func (env *testEnv) publishFile(t *testing.T, from int, filename string) {
	t.Helper()
	e := env.engines[from]
	fileID := []byte(filename)
	for _, kw := range strings.Fields(strings.ToLower(filename)) {
		if _, err := e.PublishContext(context.Background(), "Inverted", Tuple{String(kw), Bytes(fileID)}); err != nil {
			t.Fatalf("publish inverted %q: %v", kw, err)
		}
		if _, err := e.PublishContext(context.Background(), "InvertedCache", Tuple{String(kw), Bytes(fileID), String(filename)}); err != nil {
			t.Fatalf("publish cache %q: %v", kw, err)
		}
	}
	item := Tuple{Bytes(fileID), String(filename), Int(int64(len(filename)) * 1000), String("10.0.0.1"), Int(6346)}
	if _, err := e.PublishContext(context.Background(), "Item", item); err != nil {
		t.Fatalf("publish item: %v", err)
	}
}

func valueSet(vals []Value) map[string]bool {
	out := map[string]bool{}
	for _, v := range vals {
		out[string(v.Raw())] = true
	}
	return out
}

func TestPublishAndFetch(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	env.publishFile(t, 0, "madonna like a prayer")
	tuples, _, err := env.engines[10].FetchContext(context.Background(), "Item", Bytes([]byte("madonna like a prayer")))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0][1].Text() != "madonna like a prayer" {
		t.Fatalf("Fetch = %v", tuples)
	}
}

func TestPublishValidates(t *testing.T) {
	env := newTestEnv(t, 8, Config{})
	if _, err := env.engines[0].PublishContext(context.Background(), "Inverted", Tuple{String("kw")}); err == nil {
		t.Error("short tuple accepted")
	}
	if _, err := env.engines[0].PublishContext(context.Background(), "Inverted", Tuple{Int(1), Bytes(nil)}); err == nil {
		t.Error("mistyped tuple accepted")
	}
	if _, err := env.engines[0].PublishContext(context.Background(), "NoSuchTable", Tuple{}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestChainJoinSingleKeyword(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	env.publishFile(t, 0, "madonna hits")
	env.publishFile(t, 1, "madonna live")
	env.publishFile(t, 2, "beatles anthology")

	got, stats, err := env.engines[5].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("madonna")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	set := valueSet(got)
	if len(set) != 2 || !set["madonna hits"] || !set["madonna live"] {
		t.Fatalf("single-keyword results = %v", set)
	}
	if stats.PostingShipped != 0 {
		t.Errorf("single keyword shipped %d entries, want 0", stats.PostingShipped)
	}
}

func TestChainJoinTwoKeywords(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	env.publishFile(t, 0, "madonna like a prayer")
	env.publishFile(t, 1, "madonna hits")
	env.publishFile(t, 2, "prayer chants")

	got, stats, err := env.engines[7].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("madonna"), String("prayer")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	set := valueSet(got)
	if len(set) != 1 || !set["madonna like a prayer"] {
		t.Fatalf("two-keyword join = %v", set)
	}
	if stats.PostingShipped == 0 {
		t.Error("two-keyword join shipped no posting entries")
	}
}

func TestChainJoinThreeKeywords(t *testing.T) {
	env := newTestEnv(t, 32, Config{})
	env.publishFile(t, 0, "alpha beta gamma")
	env.publishFile(t, 1, "alpha beta")
	env.publishFile(t, 2, "beta gamma")
	env.publishFile(t, 3, "alpha gamma")

	got, _, err := env.engines[9].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("alpha"), String("beta"), String("gamma")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	set := valueSet(got)
	if len(set) != 1 || !set["alpha beta gamma"] {
		t.Fatalf("three-keyword join = %v", set)
	}
}

func TestChainJoinNoMatches(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	env.publishFile(t, 0, "alpha only")
	env.publishFile(t, 1, "beta only")
	got, _, err := env.engines[3].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("alpha"), String("beta")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("disjoint keywords returned %v", got)
	}
}

func TestChainJoinUnknownKeyword(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	env.publishFile(t, 0, "alpha item")
	got, _, err := env.engines[3].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("alpha"), String("zzzz")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("keyword with empty posting list returned %v", got)
	}
}

func TestChainJoinLimit(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	for i := 0; i < 10; i++ {
		env.publishFile(t, i%len(env.engines), fmt.Sprintf("common file %d", i))
	}
	got, _, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("common")}, "fileID", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("limit 3 returned %d", len(got))
	}
}

func TestChainJoinErrors(t *testing.T) {
	env := newTestEnv(t, 8, Config{})
	if _, _, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Inverted", nil, "fileID", 0); err == nil {
		t.Error("empty key list accepted")
	}
	if _, _, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Nope", []Value{String("a")}, "fileID", 0); err == nil {
		t.Error("unknown table accepted")
	}
	if _, _, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("a")}, "nocol", 0); err == nil {
		t.Error("unknown join column accepted")
	}
}

func TestCount(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	env.publishFile(t, 0, "zebra one")
	env.publishFile(t, 1, "zebra two")
	n, _, err := env.engines[5].CountContext(context.Background(), "Inverted", String("zebra"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Count(zebra) = %d, want 2", n)
	}
	n, _, err = env.engines[5].CountContext(context.Background(), "Inverted", String("absent"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Count(absent) = %d, want 0", n)
	}
}

// TestSelectivityOrderingShipsFewerEntries: the pre-join already prunes a
// rare key's query in any order, so smallest-first pays off where the
// fixed-size filters saturate. Two long lists share one file. In the given
// order the chain starts from the 10 000-entry list, and 7 333 of its
// entries pass the 5 001-entry list's filter. Smallest-first starts from
// the shorter list: nearly all of it (4 873) passes the longer list's
// fuller filter, but that is still fewer entries.
func TestSelectivityOrderingShipsFewerEntries(t *testing.T) {
	long, short := String("long"), String("short")
	build := func(order bool) OpStats {
		// Every node holds both lists, as if each were a replica, so the
		// test pays no 15 000 publishes.
		env := newTestEnv(t, 4, Config{OrderBySelectivity: order})
		for _, e := range env.engines {
			for i := 0; i < 10000; i++ {
				put(e, "Inverted", long, Tuple{long, fid(fmt.Sprintf("l%d", i))})
			}
			for i := 0; i < 5000; i++ {
				put(e, "Inverted", short, Tuple{short, fid(fmt.Sprintf("s%d", i))})
			}
			put(e, "Inverted", short, Tuple{short, fid("l0")})
		}
		vals, stats, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{long, short}, "fileID", 0)
		if err != nil {
			t.Fatal(err)
		}
		if texts(vals) != "l0" {
			t.Fatalf("order=%v: join = %q, want \"l0\"", order, texts(vals))
		}
		return stats
	}
	naive := build(false)
	smart := build(true)
	t.Logf("shipped: naive %d, smallest-first %d", naive.PostingShipped, smart.PostingShipped)
	if smart.PostingShipped >= naive.PostingShipped {
		t.Errorf("selectivity ordering shipped %d >= naive %d", smart.PostingShipped, naive.PostingShipped)
	}
}

func TestCacheSelect(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	env.publishFile(t, 0, "madonna like a prayer")
	env.publishFile(t, 1, "madonna hits")

	tuples, stats, err := env.engines[9].CacheSelectContext(context.Background(), "InvertedCache", String("madonna"), []string{"prayer"}, "fulltext", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0][2].Text() != "madonna like a prayer" {
		t.Fatalf("CacheSelect = %v", tuples)
	}
	if stats.PostingShipped != 0 {
		t.Error("cache plan shipped posting entries")
	}
}

func TestCacheSelectCaseInsensitive(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	env.publishFile(t, 0, "Madonna Like A Prayer")
	tuples, _, err := env.engines[3].CacheSelectContext(context.Background(), "InvertedCache", String("madonna"), []string{"PRAYER"}, "fulltext", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("case-insensitive filter found %d", len(tuples))
	}
}

func TestCacheSelectLimitAndMiss(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	for i := 0; i < 5; i++ {
		env.publishFile(t, i%3, fmt.Sprintf("shared name %d", i))
	}
	tuples, _, err := env.engines[0].CacheSelectContext(context.Background(), "InvertedCache", String("shared"), nil, "fulltext", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("limit 2 returned %d", len(tuples))
	}
	tuples, _, err = env.engines[0].CacheSelectContext(context.Background(), "InvertedCache", String("shared"), []string{"absent"}, "fulltext", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Fatalf("filter miss returned %d", len(tuples))
	}
}

func TestCacheQueryCheaperThanChainForPopularKeywords(t *testing.T) {
	// The §7 comparison: InvertedCache sends the query to one node (~1 KB
	// scale), while the distributed join ships posting lists (~10s of KB).
	env := newTestEnv(t, 32, Config{})
	for i := 0; i < 60; i++ {
		env.publishFile(t, i%len(env.engines), fmt.Sprintf("britney spears track%02d", i))
	}
	net := env.cluster.Net

	before := net.Stats()
	_, _, err := env.engines[3].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("britney"), String("spears")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	chainBytes := net.Stats().Sub(before).Bytes

	before = net.Stats()
	_, _, err = env.engines[3].CacheSelectContext(context.Background(), "InvertedCache", String("britney"), []string{"spears"}, "fulltext", 0)
	if err != nil {
		t.Fatal(err)
	}
	cacheBytes := net.Stats().Sub(before).Bytes

	if cacheBytes >= chainBytes {
		t.Errorf("InvertedCache used %d bytes >= chain join %d bytes", cacheBytes, chainBytes)
	}
}

func TestLocalScanOnlySeesLocal(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	env.publishFile(t, 0, "unique keyword here")
	// Sum of local scans across all nodes equals replication factor.
	total := 0
	for _, e := range env.engines {
		ts, err := e.scan(invertedSchema, String("unique"))
		if err != nil {
			t.Fatal(err)
		}
		total += len(ts)
	}
	want := env.engines[0].Node().Config().Replicate
	if total != want {
		t.Errorf("replicas across nodes = %d, want %d", total, want)
	}
}

func TestContainsFold(t *testing.T) {
	cases := []struct {
		s, sub string
		want   bool
	}{
		{"Madonna - Like a Prayer.mp3", "madonna", true},
		{"Madonna - Like a Prayer.mp3", "PRAYER", true},
		{"Madonna - Like a Prayer.mp3", "beatles", false},
		{"abc", "", true},
		{"", "x", false},
		{"short", "longer than s", false},
		{"xyz", "xyz", true},
	}
	for _, c := range cases {
		if got := containsFold(c.s, c.sub); got != c.want {
			t.Errorf("containsFold(%q, %q) = %v, want %v", c.s, c.sub, got, c.want)
		}
	}
}

func BenchmarkChainJoinTwoKeywords(b *testing.B) {
	cluster, err := dht.NewCluster(32, 1, testClusterConfig(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cluster.Close() }) //nolint:errcheck // test teardown
	var engines []*Engine
	for _, node := range cluster.Nodes {
		e := NewEngine(node, Config{})
		e.Register(invertedSchema)
		engines = append(engines, e)
	}
	for i := 0; i < 50; i++ {
		fileID := []byte(fmt.Sprintf("file-%d", i))
		engines[i%32].PublishContext(context.Background(), "Inverted", Tuple{String("alpha"), Bytes(fileID)})
		if i%2 == 0 {
			engines[i%32].PublishContext(context.Background(), "Inverted", Tuple{String("beta"), Bytes(fileID)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engines[i%32].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("alpha"), String("beta")}, "fileID", 0)
	}
}
