package pier

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"piersearch/internal/bloom"
	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
)

func TestPublishBatchStoresEverything(t *testing.T) {
	env := newTestEnv(t, 12, Config{Workers: 6})
	e := env.engines[0]

	var pubs []Pub
	for i := 0; i < 8; i++ {
		kw := fmt.Sprintf("word%d", i)
		pubs = append(pubs, Pub{"Inverted", Tuple{String(kw), Bytes([]byte("file-1"))}})
	}
	res, err := e.PublishBatchContext(context.Background(), pubs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages == 0 {
		t.Error("PublishBatch reported no traffic")
	}
	if res.Published != len(pubs) {
		t.Errorf("Published = %d, want %d", res.Published, len(pubs))
	}
	// On the zero-latency LocalNetwork each put may finish before the next
	// is handed out, so only the floor is deterministic; the latency-bearing
	// benchmark test asserts real overlap.
	if res.MaxInFlight < 1 {
		t.Errorf("max in-flight = %d, want >= 1", res.MaxInFlight)
	}
	for i := 0; i < 8; i++ {
		kw := fmt.Sprintf("word%d", i)
		tuples, _, err := env.engines[3].FetchContext(context.Background(), "Inverted", String(kw))
		if err != nil {
			t.Fatalf("fetch %s: %v", kw, err)
		}
		if len(tuples) != 1 {
			t.Errorf("fetch %s: got %d tuples, want 1", kw, len(tuples))
		}
	}
}

func TestPublishBatchReportsFirstError(t *testing.T) {
	env := newTestEnv(t, 8, Config{Workers: 4})
	e := env.engines[0]
	pubs := []Pub{
		{"Inverted", Tuple{String("good"), Bytes([]byte("f"))}},
		{"NoSuchTable", Tuple{String("bad")}},
		{"Inverted", Tuple{String("alsogood"), Bytes([]byte("f"))}},
	}
	res, err := e.PublishBatchContext(context.Background(), pubs, 4)
	if err == nil {
		t.Fatal("PublishBatch with an unknown table succeeded")
	}
	if res.Published != 2 {
		t.Errorf("Published = %d, want 2 (the valid entries)", res.Published)
	}
	// The valid entries must still have been attempted.
	if tuples, _, ferr := e.FetchContext(context.Background(), "Inverted", String("alsogood")); ferr != nil || len(tuples) != 1 {
		t.Errorf("entry after the failing one was not published: %v", ferr)
	}
}

// chainEnv publishes a corpus with one rare and two common keywords so the
// multi-key join has real pruning to do.
func chainEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	env := newTestEnv(t, 16, cfg)
	for i := 0; i < 30; i++ {
		env.publishFile(t, i%16, fmt.Sprintf("common artist track%02d", i))
	}
	env.publishFile(t, 0, "common artist rareterm")
	env.publishFile(t, 1, "common artist rareterm bonus")
	return env
}

// scanOracle intersects the fileIDs every node holds locally under each
// key: the join's answer computed without the network.
func scanOracle(t *testing.T, env *testEnv, keys []Value) map[string]bool {
	t.Helper()
	var out map[string]bool
	for _, k := range keys {
		held := map[string]bool{}
		for _, e := range env.engines {
			tuples, err := e.scan(invertedSchema, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range tuples {
				if id := string(tu[1].Raw()); out == nil || out[id] {
					held[id] = true
				}
			}
		}
		out = held
	}
	return out
}

// TestChainJoinConcurrentMatchesSequential runs the chain join with its
// probes one at a time and eight in flight: both must return the local
// scans' intersection.
func TestChainJoinConcurrentMatchesSequential(t *testing.T) {
	keys := []Value{String("common"), String("artist"), String("rareterm")}
	for _, workers := range []int{1, 8} {
		env := chainEnv(t, Config{OrderBySelectivity: true, Workers: workers})
		want := scanOracle(t, env, keys)
		if len(want) != 2 {
			t.Fatalf("oracle holds %d fileIDs, want 2", len(want))
		}
		vals, stats, err := env.engines[5].ChainJoinConcurrentContext(context.Background(), "Inverted", keys, "fileID", 0)
		if err != nil {
			t.Fatal(err)
		}
		got := valueSet(vals)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d values, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("workers=%d: join lost %q", workers, k)
			}
		}
		if stats.MaxInFlight < 1 || (workers == 1 && stats.MaxInFlight != 1) {
			t.Errorf("workers=%d: MaxInFlight = %d", workers, stats.MaxInFlight)
		}
	}
}

// TestChainJoinConcurrentPrunesShipping: in its given order the chain
// starts from the 32-entry "common" list, and the Bloom pre-join still
// cuts what it ships to the candidates the "rareterm" filter admits.
func TestChainJoinConcurrentPrunesShipping(t *testing.T) {
	env := chainEnv(t, Config{OrderBySelectivity: false, Workers: 8})
	keys := []Value{String("common"), String("rareterm")}

	first, _, err := env.engines[3].FetchContext(context.Background(), "Inverted", keys[0])
	if err != nil {
		t.Fatal(err)
	}
	vals, stats, err := env.engines[3].ChainJoinConcurrentContext(context.Background(), "Inverted", keys, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("join returned %d values, want 2", len(vals))
	}
	if stats.PostingShipped >= len(first) {
		t.Errorf("PostingShipped = %d, not below the first list's %d entries: no pruning",
			stats.PostingShipped, len(first))
	}
	if stats.PostingShipped > 4 {
		t.Errorf("PostingShipped = %d, want <= 4 after Bloom pre-join", stats.PostingShipped)
	}
}

// hostileProbeFilters are probe-reply filters the origin must drop: a
// valid filter of another geometry, and every shape bloom's decoder
// rejects.
func hostileProbeFilters() map[string][]byte {
	small := bloom.New(64, filterHashes)
	small.AddString("x")
	valid64, _ := small.MarshalBinary()
	return map[string][]byte{
		"valid 64 bits":             valid64,
		"zero bits":                 hostileFilter(0, 1, 0),
		"word count wraps":          hostileFilter(math.MaxUint64, 1, 0),
		"bits not a multiple of 64": hostileFilter(65, 1, 2),
		"zero hashes":               hostileFilter(64, 0, 1),
		"hashes overflow uint32":    hostileFilter(64, 1<<32+1, 1),
		"length mismatch":           hostileFilter(128, 1, 1),
	}
}

// TestProbeReplyOfAnotherGeometryIsDropped: every owner answers each
// probe with its true count and a filter the origin did not ask for, so
// both later keys of a three-key join come back unusable. The origin must
// ship no pre-join filter to the first key's owner and still return the
// join's answer.
func TestProbeReplyOfAnotherGeometryIsDropped(t *testing.T) {
	keys := []Value{String("common"), String("artist"), String("rareterm")}
	for name, filter := range hostileProbeFilters() {
		t.Run(name, func(t *testing.T) {
			env := chainEnv(t, Config{Workers: 8})
			var mu sync.Mutex
			shipped := 0 // step-0 chain messages that carried a filter
			for _, e := range env.engines {
				e.node.RegisterApp(appBloom, func(from dht.NodeInfo, data []byte) []byte {
					br, err := decodeBloomReply(e.handleBloom(from, data))
					if err != nil || br.Err != "" {
						t.Errorf("honest probe failed: %+v, %v", br, err)
					}
					br.Filter = filter
					return encodeBloomReply(nil, &br)
				})
				e.node.RegisterApp(appChain, func(from dht.NodeInfo, data []byte) []byte {
					if msg, err := decodeChainMsg(data); err == nil && msg.Step == 0 && len(msg.Filter) > 0 {
						mu.Lock()
						shipped++
						mu.Unlock()
					}
					return e.handleChain(from, data)
				})
			}
			vals, _, err := env.engines[3].ChainJoinConcurrentContext(context.Background(), "Inverted", keys, "fileID", 0)
			if err != nil {
				t.Fatal(err)
			}
			want := scanOracle(t, env, keys)
			got := valueSet(vals)
			if len(got) != len(want) {
				t.Fatalf("join returned %d values, want %d", len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Errorf("join lost %q", k)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if shipped != 0 {
				t.Errorf("%d step-0 messages carried a pre-join filter, want none", shipped)
			}
		})
	}
}

// TestCountProbeLeavesJoinFilterUncached pins that the probe cache keys
// on the join column: a count-only reply cached by CountContext must not
// answer a later join's probe, or the join would lose its filter.
func TestCountProbeLeavesJoinFilterUncached(t *testing.T) {
	env := chainEnv(t, Config{Workers: 8})
	installTiers(env, hotcache.Options{})
	keys := []Value{String("common"), String("rareterm")}
	e := env.engines[3]
	for _, k := range keys {
		if _, _, err := e.CountContext(context.Background(), "Inverted", k); err != nil {
			t.Fatal(err)
		}
	}
	first, _, err := e.FetchContext(context.Background(), "Inverted", keys[0])
	if err != nil {
		t.Fatal(err)
	}
	vals, stats, err := e.ChainJoinConcurrentContext(context.Background(), "Inverted", keys, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("join returned %d values, want 2", len(vals))
	}
	if stats.PostingShipped >= len(first) {
		t.Errorf("PostingShipped = %d, not below the first list's %d entries: the count-only probe hid the filter",
			stats.PostingShipped, len(first))
	}
}

func TestChainJoinConcurrentSingleKey(t *testing.T) {
	env := chainEnv(t, Config{Workers: 8})
	vals, _, err := env.engines[2].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("rareterm")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Errorf("single-key join returned %d values, want 2", len(vals))
	}
}

// TestConcurrentPublishFetch hammers one engine with overlapping Publish
// and Fetch calls; run with -race to verify engine/node/store locking.
func TestConcurrentPublishFetch(t *testing.T) {
	env := newTestEnv(t, 10, Config{Workers: 8})
	e := env.engines[0]
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				kw := fmt.Sprintf("kw%d", i%4)
				fileID := []byte(fmt.Sprintf("file-%d-%d", g, i))
				if _, err := e.PublishContext(context.Background(), "Inverted", Tuple{String(kw), Bytes(fileID)}); err != nil {
					errs <- err
					return
				}
				if _, _, err := e.FetchContext(context.Background(), "Inverted", String(kw)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tuples, _, err := env.engines[7].FetchContext(context.Background(), "Inverted", String("kw0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 24 { // 8 goroutines x 3 publishes of kw0 each
		t.Errorf("kw0 posting list has %d entries, want 24", len(tuples))
	}
}
