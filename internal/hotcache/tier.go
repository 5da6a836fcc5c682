package hotcache

import (
	"sync/atomic"
	"time"
)

// Options configures a Tier. Zero values pick defaults suitable for a
// single daemon; the scale harness shrinks budgets and installs its
// virtual clock and poll-based Wait.
type Options struct {
	// MaxBytes bounds the data cache (default 16 MiB).
	MaxBytes int64
	// Shards is the data cache's shard count (default 8, rounded up to a
	// power of two).
	Shards int
	// TTL bounds how long a cached posting set or query result may be
	// served (default 30s). Invalidation-on-publish usually fires first;
	// the TTL is the backstop for publishes the node never hears about.
	TTL time.Duration
	// RouteTTL bounds cached replica-set resolutions (default 60s).
	RouteTTL time.Duration
	// Window is the frequency sketch's decay window (default 10s).
	Window time.Duration
	// SketchWidth is counters per sketch row (default 512).
	SketchWidth int
	// HotThreshold is the sketch estimate at which a key counts as hot
	// and reads fan out across its replicas (default 8).
	HotThreshold int
	// Clock supplies time (nil = monotonic wall clock).
	Clock Clock
	// Wait overrides how singleflight waiters block (nil = channel
	// select; the scale harness substitutes a virtual-clock poll).
	Wait WaitFunc
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 16 << 20
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	if o.RouteTTL <= 0 {
		o.RouteTTL = time.Minute
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.SketchWidth <= 0 {
		o.SketchWidth = 512
	}
	if o.HotThreshold <= 0 {
		o.HotThreshold = 8
	}
	if o.Clock == nil {
		o.Clock = monotonic()
	}
	return o
}

// Tier bundles the hot-key machinery one engine installs: the data
// cache (postings, counts, bloom probes, join/select results), the
// route cache (replica-set resolutions), singleflight coalescing, and
// the hot-key sketch.
type Tier struct {
	Data    *Cache
	Routes  *Cache
	Flights *Group
	Sketch  *Sketch

	hotThreshold int
	rr           atomic.Uint64
	fanout       atomic.Int64
}

// NewTier builds a tier from opts.
func NewTier(opts Options) *Tier {
	opts = opts.withDefaults()
	t := &Tier{
		Data: NewCache(opts.MaxBytes, opts.Shards, opts.TTL, opts.Clock),
		// Routes are small and few; a lone shard with a slice of the
		// byte budget is plenty.
		Routes:       NewCache(opts.MaxBytes/8, 1, opts.RouteTTL, opts.Clock),
		Flights:      &Group{Wait: opts.Wait},
		Sketch:       NewSketch(opts.SketchWidth, opts.Window, opts.Clock),
		hotThreshold: opts.HotThreshold,
	}
	return t
}

// HotThreshold is the sketch estimate at which a key counts as hot.
func (t *Tier) HotThreshold() int { return t.hotThreshold }

// NextFanout picks the replica rank for one hot read, round-robin, and
// counts reads diverted away from rank 0 (the XOR-closest owner).
func (t *Tier) NextFanout(n int) int {
	if n <= 1 {
		return 0
	}
	r := int(t.rr.Add(1) % uint64(n))
	if r != 0 {
		t.fanout.Add(1)
	}
	return r
}

// InvalidateID purges every cached value derived from the DHT key id
// (raw key bytes), returning how many entries dropped. Called on local
// publishes and, via the store observer, when a replica accepts a store
// RPC — the purge hint that rides along with every publish.
func (t *Tier) InvalidateID(id []byte) int {
	return t.Data.InvalidateTag(string(id))
}

// TierStats snapshots a tier's counters.
type TierStats struct {
	Data        CacheStats
	Routes      CacheStats
	Coalesced   int64
	FanoutReads int64
}

// Stats snapshots the tier.
func (t *Tier) Stats() TierStats {
	return TierStats{
		Data:        t.Data.Stats(),
		Routes:      t.Routes.Stats(),
		Coalesced:   t.Flights.Coalesced(),
		FanoutReads: t.fanout.Load(),
	}
}
