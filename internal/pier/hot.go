package pier

// This file threads the hot-key survival tier (internal/hotcache)
// through the engine's read path. Every entry point degrades to the
// exact pre-tier behavior when no tier is installed, so the tier is a
// pure opt-in: SetHotTier(nil) restores byte-identical execution.
//
// Cache key prefixes (values are immutable once cached):
//
//	p|<id>          owner-side posting scan      []Tuple
//	f|<table>|<key> requester-side fetch         []Tuple  (key = Value.Key(): no hash to probe)
//	b|<col>|<id>    count(+filter) probe         bloomReply (col = join column, empty: count only)
//	j|<sig>         chain-join result            []Value
//	s|<sig>         InvertedCache plan result    []Tuple
//	r|<id>          replica-set resolution       []dht.NodeInfo (route cache)
//
// Every data entry is tagged with the raw 20-byte DHT key(s) it derives
// from; a publish for that key — observed locally after PutContext, and
// at every replica via the dht store observer riding on the STORE RPC —
// purges all dependent entries at once.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
)

// SetHotTier installs the hot-key cache tier (nil removes it). The
// node's store observer is pointed at the tier so inbound replica
// stores invalidate dependent cache entries — the purge hint that
// piggybacks on the publish's own STORE RPC.
func (e *Engine) SetHotTier(t *hotcache.Tier) {
	e.hot.Store(t)
	if t == nil {
		e.node.SetStoreObserver(nil)
		return
	}
	e.node.SetStoreObserver(func(id dht.ID) { t.InvalidateID(id[:]) })
}

// tuplesSize approximates the cache footprint of a tuple slice by its
// wire size.
func tuplesSize(ts []Tuple) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.EncodedSize())
	}
	return n
}

func valuesSize(vs []Value) int64 {
	var n int64
	for _, v := range vs {
		n += int64(len(v.Key())) + 24
	}
	return n
}

// sendRead routes a read-only application message to a live holder of
// key and returns the reply. Without a tier this is exactly
// node.SendContext. With one, the replica set for key is resolved once
// and cached, and keys running hot in the frequency sketch spread
// round-robin across the replicate-closest holders instead of always
// landing on the XOR-closest owner; a failed holder drops the cached
// route and the next candidate is tried.
func (e *Engine) sendRead(ctx context.Context, key dht.ID, app string, data []byte, stats *OpStats) ([]byte, error) {
	t := e.hot.Load()
	if t == nil {
		reply, ls, err := e.node.SendContext(ctx, key, app, data)
		if stats != nil {
			stats.addLookup(ls)
		}
		return reply, err
	}
	tag := string(key[:])
	var holders []dht.NodeInfo
	if v, ok := t.Routes.Get("r|" + tag); ok {
		holders = v.([]dht.NodeInfo)
	} else {
		closest, ls, err := e.node.LookupContext(ctx, key)
		if stats != nil {
			stats.addLookup(ls)
		}
		if err != nil {
			return nil, err
		}
		holders = holdersFor(e.node.Info(), closest, key, e.node.Config().Replicate)
		if len(holders) == 0 {
			return nil, dht.ErrNoContacts
		}
		t.Routes.Put("r|"+tag, holders, int64(len(holders))*64, tag)
	}
	start := 0
	if t.Sketch.Observe(tag) >= t.HotThreshold() {
		start = t.NextFanout(len(holders))
		if start != 0 && stats != nil {
			stats.FanoutReads++
		}
	}
	self := e.node.Info().ID
	var lastErr error
	for i := 0; i < len(holders); i++ {
		h := holders[(start+i)%len(holders)]
		if h.ID == self {
			reply, err := e.node.HandleApp(app, data)
			if err == nil {
				return reply, nil
			}
			lastErr = err
			continue
		}
		reply, ls, err := e.node.SendToContext(ctx, h, app, data)
		if stats != nil {
			stats.addLookup(ls)
		}
		if err == nil {
			return reply, nil
		}
		lastErr = err
		// Stale placement: drop the cached route so the next read
		// re-resolves against the live network.
		t.Routes.InvalidateTag(tag)
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// holdersFor merges this node into the lookup's closest-live list at
// its XOR rank and truncates to the replica width — mirroring the
// "self among closest" rule PutContext stores under, so fan-out reads
// only target nodes the placement actually wrote to.
func holdersFor(self dht.NodeInfo, closest []dht.NodeInfo, key dht.ID, replicas int) []dht.NodeInfo {
	out := make([]dht.NodeInfo, 0, len(closest)+1)
	inserted := false
	for _, c := range closest {
		if c.ID == self.ID {
			inserted = true
		}
		if !inserted && dht.Closer(self.ID, c.ID, key) {
			out = append(out, self)
			inserted = true
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		// No live contacts at all: serve locally, as SendContext's
		// owner-resolution would.
		out = append(out, self)
	}
	if len(out) > replicas {
		out = out[:replicas]
	}
	// The caller caches the result for the route's lifetime: hand it an
	// exact-size copy, so an entry pins the holders it is charged for and
	// not the K+1 slots the merge was sized for.
	exact := make([]dht.NodeInfo, len(out))
	copy(exact, out)
	return exact
}

// fetchKey is the requester-side cache key of a fetch: the relation and the
// key's own bytes, so a probe costs no hash. The SHA-1 DHT id is computed
// only on a miss, where it routes the lookup and tags the entry for
// invalidation-on-publish.
func fetchKey(table string, key Value) string { return "f|" + table + "|" + key.Key() }

// fetchProbe answers a fetch from the tier (nil: none installed) on the
// caller's goroutine, if the tier holds it.
func fetchProbe(t *hotcache.Tier, table string, key Value) ([]Tuple, bool) {
	if t == nil {
		return nil, false
	}
	v, ok := t.Data.Get(fetchKey(table, key))
	if !ok {
		return nil, false
	}
	return v.([]Tuple), true
}

// FetchCachedContext is FetchContext through the tier: repeated fetches
// of one (table, key) are served from the requester-side cache,
// concurrent identical fetches collapse into one DHT lookup.
func (e *Engine) FetchCachedContext(ctx context.Context, table string, key Value) ([]Tuple, OpStats, error) {
	t := e.hot.Load()
	if tuples, ok := fetchProbe(t, table, key); ok {
		return tuples, OpStats{CacheHits: 1}, nil
	}
	return e.fetchMiss(ctx, t, table, key)
}

// fetchMiss resolves a fetch the tier (nil: none installed) did not hold:
// one DHT lookup shared by every concurrent fetch of the same key, its
// result cached under the key's DHT id as the invalidation tag.
func (e *Engine) fetchMiss(ctx context.Context, t *hotcache.Tier, table string, key Value) ([]Tuple, OpStats, error) {
	var stats OpStats
	if t == nil {
		tuples, ls, err := e.FetchContext(ctx, table, key)
		stats.addLookup(ls)
		return tuples, stats, err
	}
	ck := fetchKey(table, key)
	v, shared, err := t.Flights.Do(ctx, ck, func() (any, error) {
		tuples, ls, err := e.FetchContext(ctx, table, key)
		stats.addLookup(ls)
		if err != nil {
			return nil, err
		}
		id := keyID(table, key)
		t.Data.Put(ck, tuples, tuplesSize(tuples), string(id[:]))
		return tuples, nil
	})
	if shared {
		stats.Coalesced++
	}
	if err != nil {
		return nil, stats, err
	}
	return v.([]Tuple), stats, nil
}

// FetchCachedBatchContext resolves keys[i] to fetched[i], in input order.
// Every key the tier already holds is answered on the caller's goroutine;
// only the misses go to the pool of Config.Workers, each exactly as
// FetchCachedContext would resolve it. A batch of cached keys therefore
// starts no goroutine and sends no message.
//
// The fetch phase it serves is best-effort: a key whose lookup fails
// yields no tuples and the batch goes on; callers that must tell a
// canceled batch from an empty one check ctx. The returned stats sum the
// per-key costs; MaxInFlight is the pool's high-water mark (the inline
// probe counts as one operation in flight).
func (e *Engine) FetchCachedBatchContext(ctx context.Context, table string, keys []Value) ([][]Tuple, OpStats) {
	var stats OpStats
	fetched := make([][]Tuple, len(keys))
	t := e.hot.Load()
	var misses []int
	for i, key := range keys {
		if tuples, ok := fetchProbe(t, table, key); ok {
			fetched[i] = tuples
			stats.CacheHits++
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) < len(keys) {
		stats.MaxInFlight = 1
	}
	if len(misses) == 0 {
		return fetched, stats
	}
	// Writes are per-index; the pool's WaitGroup orders them before the
	// merge below.
	costs := make([]OpStats, len(misses))
	var g gauge
	forEachCtx(ctx, len(misses), e.cfg.Workers, &g, func(j int) {
		i := misses[j]
		fetched[i], costs[j], _ = e.fetchMiss(ctx, t, table, keys[i]) //nolint:errcheck // best-effort, see the doc comment
	})
	for _, c := range costs {
		stats.Add(c)
	}
	if g.high() > stats.MaxInFlight {
		stats.MaxInFlight = g.high()
	}
	return fetched, stats
}

// bloomProbe is the probe behind the chain join's probe phase (a count
// and a filter of joinCol) and CountContext (joinCol empty: the count
// alone). It is cached per key and join column, so a count-only reply
// never stands in for a join's filter.
func (e *Engine) bloomProbe(ctx context.Context, table string, key Value, joinCol string) (bloomReply, OpStats, error) {
	var stats OpStats
	id := keyID(table, key)
	do := func() (bloomReply, error) {
		req := bloomMsg{Table: table, Key: key, JoinCol: joinCol}
		buf := encodeBloomMsg(codec.GetBuf(), &req)
		reply, err := e.sendRead(ctx, id, appBloom, buf, &stats)
		codec.PutBuf(buf)
		if err != nil {
			return bloomReply{}, err
		}
		br, err := decodeBloomReply(reply)
		if err != nil {
			return bloomReply{}, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		if br.Err != "" {
			return bloomReply{}, fmt.Errorf("pier: bloom probe: %s", br.Err)
		}
		return br, nil
	}
	t := e.hot.Load()
	if t == nil {
		br, err := do()
		return br, stats, err
	}
	tag := string(id[:])
	ck := "b|" + joinCol + "|" + tag
	if v, ok := t.Data.Get(ck); ok {
		stats.CacheHits++
		return v.(bloomReply), stats, nil
	}
	v, shared, err := t.Flights.Do(ctx, ck, func() (any, error) {
		br, err := do()
		if err != nil {
			return nil, err
		}
		t.Data.Put(ck, br, int64(len(br.Filter))+16, tag)
		return br, nil
	})
	if shared {
		stats.Coalesced++
	}
	if err != nil {
		return bloomReply{}, stats, err
	}
	return v.(bloomReply), stats, nil
}

// joinSig builds the normalized signature and invalidation tags for a
// chain join's cached result. The key SET is sorted — selectivity
// ordering is an execution detail, not part of the query's identity.
func joinSig(table, joinCol string, keys []Value, limit int) (string, []string) {
	ks := make([]string, len(keys))
	tags := make([]string, len(keys))
	for i, k := range keys {
		ks[i] = k.Key()
		id := dht.NamespacedID(table, ks[i])
		tags[i] = string(id[:])
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString("j|")
	b.WriteString(table)
	b.WriteByte('|')
	b.WriteString(joinCol)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(limit))
	for _, k := range ks {
		b.WriteByte(0)
		b.WriteString(k)
	}
	return b.String(), tags
}

// joinCached wraps a chain-join execution with the tier's result cache
// and singleflight: identical concurrent joins run once, repeats are
// served locally until a publish to any of the keys invalidates them.
func (e *Engine) joinCached(ctx context.Context, table string, keys []Value, joinCol string, limit int, run func(context.Context) ([]Value, OpStats, error)) ([]Value, OpStats, error) {
	t := e.hot.Load()
	if t == nil {
		return run(ctx)
	}
	var stats OpStats
	sig, tags := joinSig(table, joinCol, keys, limit)
	if v, ok := t.Data.Get(sig); ok {
		stats.CacheHits++
		return v.([]Value), stats, nil
	}
	var inner OpStats
	v, shared, err := t.Flights.Do(ctx, sig, func() (any, error) {
		vals, st, err := run(ctx)
		inner = st
		if err != nil {
			return nil, err
		}
		t.Data.Put(sig, vals, valuesSize(vals), tags...)
		return vals, nil
	})
	stats.Add(inner) // zero for coalesced waiters: the leader paid the traffic
	if shared {
		stats.Coalesced++
	}
	if err != nil {
		return nil, stats, err
	}
	return v.([]Value), stats, nil
}

// selectSig is joinSig's analogue for the InvertedCache plan.
func selectSig(table string, key Value, filters []string, textCol string, limit int) (string, string) {
	id := dht.NamespacedID(table, key.Key())
	tag := string(id[:])
	var b strings.Builder
	b.WriteString("s|")
	b.WriteString(table)
	b.WriteByte('|')
	b.WriteString(textCol)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(limit))
	b.WriteByte('|')
	b.WriteString(key.Key())
	for _, f := range filters {
		b.WriteByte(0)
		b.WriteString(f)
	}
	return b.String(), tag
}
