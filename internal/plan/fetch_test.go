package plan_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
)

// fetchEnv is a small LocalNetwork cluster holding nfiles Items, its
// engines built with the given Workers, with a hot tier on engine 0 whose clock reports to the test. Lookup probes are
// sequential (Alpha 1) and every node knows every node, so a fetch's
// message count does not depend on goroutine timing.
type fetchEnv struct {
	engine *pier.Engine
	tier   *hotcache.Tier
	keys   []pier.Value // Item keys, one per file
	files  []piersearch.File
	// onClock runs on every tier clock reading — which the data cache
	// takes on the goroutine of whoever is probing it.
	onClock func()
}

func newFetchEnv(t *testing.T, nfiles, workers int) *fetchEnv {
	t.Helper()
	cluster, err := dht.NewCluster(8, 7, dht.Config{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() }) //nolint:errcheck // test teardown
	env := &fetchEnv{}
	var engines []*pier.Engine
	for _, node := range cluster.Nodes {
		e := pier.NewEngine(node, pier.Config{Workers: workers})
		piersearch.RegisterSchemas(e)
		engines = append(engines, e)
	}
	pub := piersearch.NewPublisher(engines[1], piersearch.ModeInverted, piersearch.Tokenizer{})
	for i := 0; i < nfiles; i++ {
		f := piersearch.File{Name: fmt.Sprintf("gamma track%02d.mp3", i), Size: int64(1000 + i), Host: "10.4.0.1", Port: 6346}
		if _, err := pub.PublishFile(f); err != nil {
			t.Fatal(err)
		}
		id := f.ID()
		env.files = append(env.files, f)
		env.keys = append(env.keys, pier.Bytes(id[:]))
	}
	start := time.Now()
	env.engine = engines[0]
	env.tier = hotcache.NewTier(hotcache.Options{Clock: func() time.Duration {
		if env.onClock != nil {
			env.onClock()
		}
		return time.Since(start)
	}})
	env.engine.SetHotTier(env.tier)
	return env
}

// fetchAll runs one DHTFetch over keys and returns the emitted tuples and
// the operator's own stats.
func (env *fetchEnv) fetchAll(t *testing.T, keys []pier.Value) ([]pier.Tuple, plan.OpStats) {
	t.Helper()
	rows := make([]pier.Tuple, len(keys))
	for i, k := range keys {
		rows[i] = pier.Tuple{k}
	}
	op := &plan.DHTFetch{Engine: env.engine, Table: piersearch.TableItem, Input: &sliceOp{tuples: rows}}
	out := drainAll(t, op)
	return out, op.Stats()
}

func (env *fetchEnv) checkOrder(t *testing.T, out []pier.Tuple) {
	t.Helper()
	if len(out) != len(env.files) {
		t.Fatalf("%d tuples, want %d", len(out), len(env.files))
	}
	for i, tp := range out {
		f, _, err := piersearch.FileFromItemTuple(tp)
		if err != nil || f != env.files[i] {
			t.Fatalf("tuple %d = %+v, %v; want %+v (input order)", i, f, err, env.files[i])
		}
	}
}

// TestDHTFetchServesCachedKeysInline: a batch whose keys the tier already
// holds is resolved on the caller's goroutine — no pool, no goroutine, no
// message. The tier's clock is read inside every cache probe, so the
// goroutine count it sees is the count while the batch is being resolved:
// with the probes on pool workers it read baseline+workers.
func TestDHTFetchServesCachedKeysInline(t *testing.T) {
	env := newFetchEnv(t, 24, 8)
	out, cold := env.fetchAll(t, env.keys)
	env.checkOrder(t, out)
	if cold.CacheHits != 0 || cold.Messages == 0 {
		t.Fatalf("cold batch: %d hits, %d messages", cold.CacheHits, cold.Messages)
	}

	base := runtime.NumGoroutine()
	probes, most := 0, 0
	env.onClock = func() {
		probes++ // unsynchronised on purpose: -race flags a probe off this goroutine
		most = max(most, runtime.NumGoroutine())
	}
	out, warm := env.fetchAll(t, env.keys)
	env.onClock = nil
	env.checkOrder(t, out)
	if warm.CacheHits != len(env.keys) || warm.Messages != 0 {
		t.Errorf("cached batch: %d hits, %d messages; want %d, 0", warm.CacheHits, warm.Messages, len(env.keys))
	}
	if probes < len(env.keys) {
		t.Fatalf("the tier clock was read %d times for %d probes: the test sees nothing", probes, len(env.keys))
	}
	if most > base {
		t.Errorf("%d goroutines while resolving a cached batch, %d before it: a tier hit started a goroutine", most, base)
	}
	if warm.MaxInFlight != 1 {
		t.Errorf("MaxInFlight = %d for an inline batch, want 1", warm.MaxInFlight)
	}
}

// TestDHTFetchMixedBatchMatchesPerKeyFetch: with some keys cached and some
// not, the batch emits tuples in input order and accounts exactly what
// fetching the same keys one at a time through FetchCachedContext — the
// path every key took before — accounts on an identical cluster.
func TestDHTFetchMixedBatchMatchesPerKeyFetch(t *testing.T) {
	const nfiles = 24
	cached := func(i int) bool { return i%3 != 0 }
	prime := func(env *fetchEnv) {
		for i, k := range env.keys {
			if cached(i) {
				if _, _, err := env.engine.FetchCachedContext(context.Background(), piersearch.TableItem, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Both clusters run one worker: the batch's misses resolve in input
	// order, as the reference's loop does, so both clusters' routing
	// tables learn in the same order.
	ref := newFetchEnv(t, nfiles, 1)
	prime(ref)
	var want pier.OpStats
	for _, k := range ref.keys {
		_, st, err := ref.engine.FetchCachedContext(context.Background(), piersearch.TableItem, k)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
	}

	env := newFetchEnv(t, nfiles, 1)
	prime(env)
	out, got := env.fetchAll(t, env.keys)
	env.checkOrder(t, out)
	if wantHits := nfiles - (nfiles+2)/3; got.CacheHits != wantHits || want.CacheHits != wantHits {
		t.Errorf("cache hits: batch %d, per-key %d, want %d", got.CacheHits, want.CacheHits, wantHits)
	}
	if got.Messages != want.Messages || got.Bytes != want.Bytes || got.Messages == 0 {
		t.Errorf("batch paid %d messages / %d bytes, per-key fetches %d / %d", got.Messages, got.Bytes, want.Messages, want.Bytes)
	}

	// The misses are cached now; the next batch is all hits.
	out, again := env.fetchAll(t, env.keys)
	env.checkOrder(t, out)
	if again.CacheHits != nfiles || again.Messages != 0 {
		t.Errorf("second batch: %d hits, %d messages; want %d, 0", again.CacheHits, again.Messages, nfiles)
	}
}
