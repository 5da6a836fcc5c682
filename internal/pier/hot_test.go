package pier

import (
	"context"
	"sync"
	"testing"
	"time"

	"piersearch/internal/hotcache"
)

// installTiers puts a fresh hot tier on every engine and returns them
// index-aligned with env.engines.
func installTiers(env *testEnv, opts hotcache.Options) []*hotcache.Tier {
	tiers := make([]*hotcache.Tier, len(env.engines))
	for i, e := range env.engines {
		tiers[i] = hotcache.NewTier(opts)
		e.SetHotTier(tiers[i])
	}
	return tiers
}

// nonHolderIndex finds an engine that does not hold (table, key) locally,
// so its reads must cross the network (probing the raw store directly to
// avoid warming any cache).
func nonHolderIndex(t *testing.T, env *testEnv, table string, key Value) int {
	t.Helper()
	id := keyID(table, key)
	for i, e := range env.engines {
		if len(e.node.LocalGet(id)) == 0 {
			return i
		}
	}
	t.Fatal("every node holds the key")
	return -1
}

// TestHotTierInvalidationOnPublish pins the staleness contract: once a
// publish for a key has acked, no cached result derived from that key is
// served again — at the publisher (purged on the ack) and at every
// replica (purged by the store observer when the STORE RPC lands).
func TestHotTierInvalidationOnPublish(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	installTiers(env, hotcache.Options{})
	env.publishFile(t, 0, "alpha one")
	key := String("alpha")

	req := env.engines[nonHolderIndex(t, env, "Inverted", key)]
	n, _, err := req.CountContext(context.Background(), "Inverted", key)
	if err != nil || n != 1 {
		t.Fatalf("first count = %d, %v; want 1", n, err)
	}
	n, ls, err := req.CountContext(context.Background(), "Inverted", key)
	if err != nil || n != 1 {
		t.Fatalf("second count = %d, %v; want 1", n, err)
	}
	if ls.Messages != 0 {
		t.Errorf("second count paid %d messages, want 0 (cached)", ls.Messages)
	}

	// Publisher side: the requester's own publish must purge its cache.
	if _, err := req.PublishContext(context.Background(), "Inverted", Tuple{key, Bytes([]byte("alpha two"))}); err != nil {
		t.Fatal(err)
	}
	n, _, err = req.CountContext(context.Background(), "Inverted", key)
	if err != nil || n != 2 {
		t.Fatalf("post-publish count = %d, %v; want 2 (stale cache served)", n, err)
	}

	// Replica side: a replica that cached a result for the key must purge
	// it when another node's publish stores through it.
	id := keyID("Inverted", key)
	replica := -1
	for i, e := range env.engines {
		if len(e.node.LocalGet(id)) > 0 {
			replica = i
			break
		}
	}
	if replica < 0 {
		t.Fatal("no replica holds the key")
	}
	rep := env.engines[replica]
	if n, _, err = rep.CountContext(context.Background(), "Inverted", key); err != nil || n != 2 {
		t.Fatalf("replica count = %d, %v; want 2", n, err)
	}
	other := env.engines[(replica+1)%len(env.engines)]
	if _, err := other.PublishContext(context.Background(), "Inverted", Tuple{key, Bytes([]byte("alpha three"))}); err != nil {
		t.Fatal(err)
	}
	if n, _, err = rep.CountContext(context.Background(), "Inverted", key); err != nil || n != 3 {
		t.Fatalf("replica post-publish count = %d, %v; want 3 (observer purge missed)", n, err)
	}
}

// TestHotTierSingleflightCoalesces: N concurrent identical count probes
// produce exactly one upstream RPC — every other call either rides the
// in-flight leader or hits the cache the leader filled. Run with -race.
func TestHotTierSingleflightCoalesces(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	installTiers(env, hotcache.Options{})
	env.publishFile(t, 0, "beta song")
	key := String("beta")
	e := env.engines[nonHolderIndex(t, env, "Inverted", key)]

	const calls = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	payers, rode := 0, 0
	start := make(chan struct{})
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			br, st, err := e.bloomProbe(context.Background(), "Inverted", key, "")
			if err != nil || br.Count != 1 {
				t.Errorf("count = %d, %v; want 1", br.Count, err)
				return
			}
			mu.Lock()
			if st.Messages > 0 {
				payers++
			}
			rode += st.CacheHits + st.Coalesced
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if payers != 1 {
		t.Errorf("%d of %d concurrent probes paid upstream traffic, want exactly 1", payers, calls)
	}
	if rode != calls-1 {
		t.Errorf("cacheHits+coalesced = %d, want %d", rode, calls-1)
	}
}

// TestHotTierTTLExpiry: a cached result is served only within its TTL;
// past it the next read pays the network again (and re-caches).
func TestHotTierTTLExpiry(t *testing.T) {
	env := newTestEnv(t, 16, Config{})
	var mu sync.Mutex
	now := time.Duration(0)
	clock := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	installTiers(env, hotcache.Options{TTL: time.Second, Clock: clock})
	env.publishFile(t, 0, "gamma tune")
	key := String("gamma")
	e := env.engines[nonHolderIndex(t, env, "Inverted", key)]

	n, ls, err := e.CountContext(context.Background(), "Inverted", key)
	if err != nil || n != 1 {
		t.Fatalf("warm count = %d, %v; want 1", n, err)
	}
	if ls.Messages == 0 {
		t.Fatal("warm count paid no messages: requester unexpectedly holds the key")
	}
	if n, ls, err = e.CountContext(context.Background(), "Inverted", key); err != nil || n != 1 || ls.Messages != 0 {
		t.Fatalf("within-TTL count = %d msgs=%d, %v; want cached", n, ls.Messages, err)
	}
	mu.Lock()
	now += 2 * time.Second
	mu.Unlock()
	n, ls, err = e.CountContext(context.Background(), "Inverted", key)
	if err != nil || n != 1 {
		t.Fatalf("post-TTL count = %d, %v; want 1", n, err)
	}
	if ls.Messages == 0 {
		t.Error("post-TTL count paid no messages: expired entry was served")
	}
}

// TestHotTierFanoutReadsStayCorrect: with the cache effectively disabled
// (1ns TTL) and a low hot threshold, repeated reads of one key rotate
// across its replicas and every answer stays correct.
func TestHotTierFanoutReadsStayCorrect(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	tiers := installTiers(env, hotcache.Options{TTL: time.Nanosecond, HotThreshold: 2})
	env.publishFile(t, 0, "delta mix")
	key := String("delta")
	idx := nonHolderIndex(t, env, "Inverted", key)
	e := env.engines[idx]

	for i := 0; i < 8; i++ {
		n, _, err := e.CountContext(context.Background(), "Inverted", key)
		if err != nil || n != 1 {
			t.Fatalf("read %d: count = %d, %v; want 1", i, n, err)
		}
	}
	if tiers[idx].Stats().FanoutReads == 0 {
		t.Error("hot key never fanned out to a non-primary replica")
	}
}

// TestFetchCachePurgedOnPublish: the requester-side fetch entry is keyed by
// relation and key bytes, not by the DHT id, but is still tagged with the
// id — so a publish to an Item key purges it on both invalidation paths:
// the publisher's own put ack, and the store observer at a replica the
// STORE lands on.
func TestFetchCachePurgedOnPublish(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	tiers := installTiers(env, hotcache.Options{})
	env.publishFile(t, 0, "gamma tape")
	key := Bytes([]byte("gamma tape"))
	item := func(host string) Tuple {
		return Tuple{key, String("gamma tape"), Int(1), String(host), Int(6346)}
	}
	ctx := context.Background()
	fetch := func(e *Engine, want int) OpStats {
		t.Helper()
		tuples, st, err := e.FetchCachedContext(ctx, "Item", key)
		if err != nil || len(tuples) != want {
			t.Fatalf("fetch = %d tuples, %v; want %d", len(tuples), err, want)
		}
		return st
	}

	// Local-put path.
	ri := nonHolderIndex(t, env, "Item", key)
	req := env.engines[ri]
	before := tiers[ri].Data.Stats().Misses
	fetch(req, 1)
	// FetchCachedContext probes the tier itself and then enters the
	// read-through at fill, so a miss is counted once.
	if got := tiers[ri].Data.Stats().Misses - before; got != 1 {
		t.Fatalf("a missed fetch counted %d tier misses, want 1", got)
	}
	if st := fetch(req, 1); st.CacheHits != 1 || st.Messages != 0 {
		t.Fatalf("second fetch: %d hits, %d messages; want a pure cache hit", st.CacheHits, st.Messages)
	}
	if _, ok := tiers[ri].Data.Get(fetchKey("Item", key)); !ok {
		t.Fatal("fetch entry is not under the relation+key form")
	}
	if _, err := req.PublishContext(context.Background(), "Item", item("10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	if st := fetch(req, 2); st.CacheHits != 0 {
		t.Fatal("publisher served its own stale fetch after the put acked")
	}

	// Store-observer path: a replica that cached the fetch sees another
	// node's publish arrive as a STORE.
	id := keyID("Item", key)
	replica := -1
	for i, e := range env.engines {
		if i != ri && len(e.node.LocalGet(id)) > 0 {
			replica = i
			break
		}
	}
	if replica < 0 {
		t.Fatal("no replica holds the key")
	}
	rep := env.engines[replica]
	fetch(rep, 2)
	if st := fetch(rep, 2); st.CacheHits != 1 {
		t.Fatal("replica did not cache the fetch")
	}
	if _, err := env.engines[(replica+1)%len(env.engines)].PublishContext(context.Background(), "Item", item("10.0.0.3")); err != nil {
		t.Fatal(err)
	}
	if st := fetch(rep, 3); st.CacheHits != 0 {
		t.Fatal("replica served a stale fetch after the STORE landed (observer purge missed)")
	}
}

// TestCachedRouteIsExactSize: the holder list is cached for the route's
// lifetime and charged by its length, so it must not drag the K+1-slot
// array the merge was built in along with it.
func TestCachedRouteIsExactSize(t *testing.T) {
	env := newTestEnv(t, 24, Config{})
	self := env.engines[0].node.Info()
	key := keyID("Inverted", String("delta"))
	closest, _, err := env.engines[0].node.LookupContext(context.Background(), key)
	if err != nil || len(closest) < 4 {
		t.Fatalf("lookup = %d contacts, %v", len(closest), err)
	}
	for _, replicas := range []int{1, 3, len(closest) + 5} {
		h := holdersFor(self, closest, key, replicas)
		if want := min(replicas, len(closest)+1); len(h) > want || len(h) == 0 {
			t.Errorf("replicas %d: %d holders", replicas, len(h))
		}
		if cap(h) != len(h) {
			t.Errorf("replicas %d: %d holders pin a %d-slot array", replicas, len(h), cap(h))
		}
	}
}
