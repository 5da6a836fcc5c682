package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	mrand "math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"piersearch/internal/dht/routing"
	"piersearch/internal/telemetry"
)

// Config holds node parameters. The zero value is usable: Normalize fills
// in Kademlia's customary defaults.
type Config struct {
	K         int           // bucket size and lookup result width (default 20)
	Alpha     int           // lookup probe parallelism (default 3)
	Replicate int           // number of nodes a value is stored on (default 3)
	TTL       time.Duration // default value lifetime; 0 means no expiry
	Clock     func() time.Duration

	// RefreshInterval is how long a bucket may sit idle before the
	// maintenance loop refreshes it with a lookup in its range (default
	// 15m). RepublishInterval is the provider-record replication period:
	// a held value whose StoredAt is older than half this interval is
	// re-pushed to the Replicate closest contacts (default 30m).
	RefreshInterval   time.Duration
	RepublishInterval time.Duration

	// Go, Sleep and LookupWait abstract concurrency and blocking so the
	// same node code runs over real goroutines and over the virtual-time
	// scheduler in internal/scale, which requires that tasks block only
	// through its clock. Defaults: go fn(), a timer that Close interrupts,
	// and a blocking select inside the lookup engine.
	Go         func(fn func())
	Sleep      func(d time.Duration)
	LookupWait func(ctx context.Context, wake <-chan struct{})

	// NewStorage constructs the node's local value store. nil selects the
	// built-in in-memory sharded map (NewStore). Cluster builders invoke
	// the factory once per node, so one Config can fan a per-node disk
	// store (store.DiskFactory) across a whole cluster. NewNode panics if
	// the factory fails; callers that must handle storage-open errors
	// should open the store first and return the instance from the
	// factory, or build through NewCluster, which surfaces factory
	// errors.
	NewStorage func(self NodeInfo) (Storage, error)

	// Logger receives structured operational events (janitor sweep reclaim
	// counts). Nil discards them.
	Logger *slog.Logger

	// Tracer, when set, records this node's side of distributed query
	// traces: one span per RPC issued and served, per-hop lookup probe
	// spans, and the spans piggy-backed on responses it absorbs. Nil
	// disables tracing at zero cost.
	Tracer *telemetry.Tracer

	// Metrics, when set, registers the node's counters and gauges
	// (dht.rpc.in.*/out.*, table occupancy, eviction/refresh/republish
	// counts). Nil disables metric collection at zero cost.
	Metrics *telemetry.Registry
}

// Normalize fills unset fields with defaults and returns the config.
func (c Config) Normalize() Config {
	if c.K <= 0 {
		c.K = 20
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.Replicate <= 0 {
		c.Replicate = 3
	}
	if c.Clock == nil {
		start := time.Now()
		c.Clock = func() time.Duration { return time.Since(start) }
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 15 * time.Minute
	}
	if c.RepublishInterval <= 0 {
		c.RepublishInterval = 30 * time.Minute
	}
	if c.Go == nil {
		c.Go = func(fn func()) { go fn() }
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// AppHandler processes an application message routed to this node and
// returns an optional reply payload.
type AppHandler func(from NodeInfo, data []byte) []byte

// LookupStats describes the traffic cost of one DHT operation.
// Hops counts sequential probe depth, the quantity that multiplies RTT
// when converting to latency (O(log N) in Kademlia).
type LookupStats struct {
	Messages int
	Bytes    int
	Hops     int
	Failed   int // contacts that did not respond
}

// Add merges other into s. Callers fanning out lookups concurrently must
// serialise Add calls themselves.
func (s *LookupStats) Add(o LookupStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Hops += o.Hops
	s.Failed += o.Failed
}

// ErrNoContacts is returned when a node has an empty routing table and
// cannot perform lookups.
var ErrNoContacts = errors.New("dht: routing table empty")

// maxRefreshPerTick bounds how many stale buckets one maintenance tick
// refreshes, spreading lookup traffic instead of bursting it.
const maxRefreshPerTick = 2

// Node is one DHT participant. All exported methods are safe for concurrent
// use: the routing table and store carry their own locks, outbound RPCs are
// issued without holding any node lock, and the concurrent PIER pipeline
// drives many Put/Get/Send operations against one node at once.
type Node struct {
	info      Config
	self      NodeInfo
	transport Transport
	table     *Table
	store     Storage

	mu       sync.Mutex // guards handlers
	handlers map[string]AppHandler

	// rng drives refresh-target selection and maintenance jitter. Seeded
	// from the node's own ID so virtual-time replays are reproducible.
	rngMu sync.Mutex
	rng   *mrand.Rand

	// Maintenance state: maintOn gates join-handoff (only a node running
	// the replication loops volunteers data to new contacts), lastHandoff
	// rate-limits handoffs per peer.
	maintOn     atomic.Bool
	handoffMu   sync.Mutex
	lastHandoff map[ID]time.Duration

	providesReceived  atomic.Int64
	handoffsSent      atomic.Int64
	republishedValues atomic.Int64
	refreshedBuckets  atomic.Int64

	// storeObs, when set, runs after every local store mutation — both
	// this node's own puts and inbound replica STOREs. The hot-key cache
	// tier hangs its invalidation-on-publish off this hook: the STORE RPC
	// a publisher already sends doubles as the purge hint at every
	// replica, with no extra wire traffic.
	storeObs atomic.Pointer[func(ID)]

	// ctx is the node's lifetime. Work the node does for itself — join,
	// refresh, republish, handoff, the eviction ping, the maintenance and
	// janitor loops — runs under it, and Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	closeOnce sync.Once
	closeErr  error

	janitorSweeps    atomic.Int64
	janitorReclaimed atomic.Int64

	// tracer records this node's side of distributed traces. Held in an
	// atomic pointer so cluster builders can attach tracers after
	// construction (SetTracer) without racing in-flight RPCs. Nil means
	// tracing off.
	tracer atomic.Pointer[telemetry.Tracer]

	// met holds the node's pre-resolved metric instruments; the zero
	// value (registry absent) is all-nil counters, which no-op.
	met nodeMetrics
}

// NewNode creates a node with the given identity, transport and config.
// It panics if cfg.NewStorage fails; see the Config.NewStorage docs.
func NewNode(self NodeInfo, transport Transport, cfg Config) *Node {
	cfg = cfg.Normalize()
	var store Storage
	if cfg.NewStorage != nil {
		st, err := cfg.NewStorage(self)
		if err != nil {
			panic(fmt.Sprintf("dht: NewStorage for %s: %v", self.Addr, err))
		}
		store = st
	} else {
		store = NewStore()
	}
	table := NewTable(self.ID, cfg.K)
	table.SetClock(cfg.Clock)
	n := &Node{
		info:        cfg,
		self:        self,
		transport:   transport,
		table:       table,
		store:       store,
		handlers:    make(map[string]AppHandler),
		rng:         mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(self.ID[:8])))),
		lastHandoff: make(map[ID]time.Duration),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background()) //lint:allow ctxflow the node's lifetime root; Close cancels it
	if cfg.Tracer != nil {
		n.tracer.Store(cfg.Tracer)
	}
	n.registerMetrics(cfg.Metrics)
	return n
}

// SetTracer attaches (or, with nil, detaches) the tracer recording this
// node's spans. Safe to call while RPCs are in flight.
func (n *Node) SetTracer(t *telemetry.Tracer) { n.tracer.Store(t) }

// Tracer returns the node's tracer, nil when tracing is off.
func (n *Node) Tracer() *telemetry.Tracer { return n.tracer.Load() }

// Context returns the node's lifetime context, done once Close is called.
// Work that is the root of its own activity on this node — a publish with
// no caller, a harness phase — runs under it.
func (n *Node) Context() context.Context { return n.ctx }

// Close ends the node's lifetime and releases its local storage. It first
// cancels the lifetime context, so the janitor and maintenance loops exit
// and the node's own join, refresh, republish and handoff work issues no
// further RPCs; then it closes the store (for a disk-backed store this
// flushes the write-ahead log, fsyncs and releases the lock file). It is
// idempotent and returns the first close error. Callers must stop any
// transport serving this node first.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.cancel()
		n.closeErr = n.store.Close()
	})
	return n.closeErr
}

// Storage returns the node's local value store.
func (n *Node) Storage() Storage { return n.store }

// Info returns the node's identity.
func (n *Node) Info() NodeInfo { return n.self }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.info }

// TableLen returns the number of routing-table contacts.
func (n *Node) TableLen() int { return n.table.Len() }

// ExpireNow sweeps the local store for TTL-expired values immediately and
// returns how many were removed. Reclaimed entries accumulate into
// JanitorStats whether the sweep was manual or ticker-driven.
func (n *Node) ExpireNow() int {
	removed := n.store.Expire(n.info.Clock())
	if removed > 0 {
		n.janitorReclaimed.Add(int64(removed))
	}
	return removed
}

// JanitorStats are the lifetime soft-state reclamation counters of one
// node: how many janitor sweeps ran and how many TTL-expired entries were
// reclaimed (by the ticker and by explicit ExpireNow calls).
type JanitorStats struct {
	Sweeps    int64
	Reclaimed int64
}

// JanitorStats returns the node's reclamation counters.
func (n *Node) JanitorStats() JanitorStats {
	return JanitorStats{
		Sweeps:    n.janitorSweeps.Load(),
		Reclaimed: n.janitorReclaimed.Load(),
	}
}

// StartJanitor launches the background soft-state janitor: a ticker that
// sweeps TTL-expired values out of the local store every interval, so
// long-running deployments actually reclaim dead postings instead of only
// filtering them lazily on Get. interval <= 0 defaults to one minute. The
// reclaimed-entry count of every sweep accumulates into JanitorStats and
// nonzero sweeps are logged to Config.Logger. The janitor runs until the
// returned stop function (idempotent) is called or the node is closed.
func (n *Node) StartJanitor(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-n.ctx.Done():
				return
			case <-t.C:
				n.janitorSweeps.Add(1)
				if removed := n.ExpireNow(); removed > 0 {
					n.info.Logger.Info("dht: janitor reclaimed expired entries",
						"removed", removed, "total", n.janitorReclaimed.Load())
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// RegisterApp installs h as the handler for application messages with the
// given dispatch kind.
func (n *Node) RegisterApp(kind string, h AppHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[kind] = h
}

// observe records contact with peer in the routing table.
func (n *Node) observe(peer NodeInfo) {
	if peer.ID == n.self.ID || peer.ID.IsZero() {
		return
	}
	candidate, outcome := n.table.Observe(peer)
	if outcome == routing.OutcomeInserted {
		// A brand-new contact may be a joiner missing data it is now
		// responsible for; hand replicas over if replication is running.
		n.maybeHandoff(peer)
		return
	}
	if candidate == nil {
		return
	}
	// Bucket full: ping the least-recently-seen contact and evict it if
	// dead, per Kademlia. The bucket's replacement cache then promotes the
	// freshest recently seen contact (usually peer itself) into the slot.
	if _, err := n.callCtx(n.ctx, *candidate, &Request{Kind: RPCPing}); err != nil {
		n.table.Evict(candidate.ID)
		n.met.evictions.Inc()
		n.table.Update(peer)
	}
}

// SeedContact inserts peer into the routing table without a liveness
// check: no eviction ping is issued, and when the target bucket is full
// the peer is dropped. Cluster builders that construct warm routing
// tables offline (internal/scale) use this to avoid the O(n·k) RPC
// bootstrap; live traffic then maintains the table as usual. Reports
// whether the peer was inserted or refreshed.
func (n *Node) SeedContact(peer NodeInfo) bool {
	if peer.ID == n.self.ID || peer.ID.IsZero() {
		return false
	}
	_, updated := n.table.Update(peer)
	return updated
}

// callCtx issues one RPC under ctx and accounts for routing-table
// maintenance. A ctx that is already done issues nothing; one that ends
// mid-call cancels the round-trip in flight. A context-canceled call does
// not evict the contact: the peer is not known dead, the caller just
// stopped waiting.
func (n *Node) callCtx(ctx context.Context, to NodeInfo, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dht: call %s: %w", to.Addr, err)
	}
	req.From = n.self
	// Trace: stamp the outbound envelope with a fresh span so the remote
	// handler's span parents under it. StartSpan is a no-op returning a
	// nil span when ctx carries no trace (the common, untraced path).
	_, sp := telemetry.StartSpan(ctx, "dht.rpc")
	if sp != nil {
		sp.SetAttr("kind", req.Kind.String())
		sp.SetAttr("to", to.Addr)
		req.TraceID, req.SpanID = sp.Trace(), sp.ID()
	}
	n.met.rpcOut[req.Kind&rpcKindMask].Inc()
	resp, err := n.transport.CallContext(ctx, to, req)
	if err != nil {
		n.met.rpcOutFail.Inc()
		sp.FinishErr(err)
		if ctx.Err() == nil {
			n.table.Evict(to.ID)
			n.met.evictions.Inc()
		}
		return nil, err
	}
	// Absorb the handler-side spans piggy-backed on the response into
	// our own ring so the whole trace assembles at the query's origin.
	if sp != nil {
		sp.Tracer().Absorb(resp.Spans)
	}
	sp.Finish()
	return resp, nil
}

// HandleRPC is the server side of the protocol: transports deliver inbound
// requests here. Traced requests get a handler span, and every span this
// node's ring holds for the request's trace rides back on the response so
// the trace assembles at the query's origin.
func (n *Node) HandleRPC(req *Request) *Response {
	n.met.rpcIn[req.Kind&rpcKindMask].Inc()
	if req.TraceID == 0 {
		return n.handleRPC(req)
	}
	tr := n.tracer.Load()
	if tr == nil {
		return n.handleRPC(req)
	}
	sp := tr.StartHandler(req.TraceID, req.SpanID, "serve."+req.Kind.String())
	resp := n.handleRPC(req)
	sp.Finish()
	resp.Spans = tr.TraceSpans(req.TraceID)
	return resp
}

func (n *Node) handleRPC(req *Request) *Response {
	n.observe(req.From)
	switch req.Kind {
	case RPCPing:
		return &Response{From: n.self, OK: true}

	case RPCFindNode, RPCFindValue:
		// A reply ships only as many contacts as its caller reads: Want
		// when the caller set one, else K.
		width := n.info.K
		if req.Want > 0 && req.Want < width {
			width = req.Want
		}
		resp := &Response{From: n.self, OK: true}
		if req.Kind == RPCFindValue {
			resp.Values = n.store.Get(req.Target, n.info.Clock())
			// Kademlia's FIND_VALUE answers with the value instead of
			// contacts. A walker still short of Replicate holders needs
			// only the other holders, and those are this holder's nearest.
			if len(resp.Values) > 0 && width > n.info.Replicate {
				width = n.info.Replicate
			}
		}
		resp.Closest = n.table.Closest(req.Target, width)
		return resp

	case RPCStore:
		n.store.Put(req.Target, req.Value)
		n.notifyStore(req.Target)
		return &Response{From: n.self, OK: true}

	case RPCProvide:
		now := n.info.Clock()
		for _, rec := range req.Records {
			if rec.TTL < 0 {
				continue
			}
			// TTL is remaining lifetime: stamping our own StoredAt keeps
			// the absolute expiry aligned across holders, and the fresh
			// StoredAt suppresses our own republish of this value for the
			// next half-interval — one holder per period refreshes the
			// whole replica set.
			n.store.Put(rec.Key, StoredValue{
				Data:      rec.Data,
				Publisher: rec.Publisher,
				StoredAt:  now,
				TTL:       rec.TTL,
			})
			n.notifyStore(rec.Key)
		}
		n.providesReceived.Add(int64(len(req.Records)))
		return &Response{From: n.self, OK: true}

	case RPCApp:
		n.mu.Lock()
		h := n.handlers[req.App]
		n.mu.Unlock()
		if h == nil {
			return &Response{From: n.self, OK: false}
		}
		reply := h(req.From, req.Data)
		return &Response{From: n.self, Data: reply, OK: true}

	default:
		return &Response{From: n.self, OK: false}
	}
}

// JoinNetwork joins through any reachable seed: each is pinged (a seed
// given by address alone identifies itself in the reply), then an
// iterative lookup of the node's own ID populates the buckets nearest to
// it — the contacts that matter most for the keys it will be asked to
// hold. With no foreign seed at all (seeds empty, or only the node itself)
// the node is the first in the network and joins trivially; with seeds
// that are all unreachable the join fails. The join runs under the node's
// lifetime context.
func (n *Node) JoinNetwork(seeds []NodeInfo) error {
	var lastErr error
	foreign, joined := 0, 0
	for _, s := range seeds {
		if s.ID == n.self.ID || s.Addr == n.self.Addr {
			continue
		}
		foreign++
		resp, err := n.callCtx(n.ctx, s, &Request{Kind: RPCPing})
		if err != nil {
			lastErr = err
			continue
		}
		n.observe(resp.From)
		joined++
	}
	if foreign == 0 {
		return nil
	}
	if joined == 0 {
		return fmt.Errorf("dht: join: no seed reachable: %w", lastErr)
	}
	if _, _, err := n.LookupContext(n.ctx, n.self.ID); err != nil {
		return fmt.Errorf("dht: join self-lookup: %w", err)
	}
	return nil
}

// LookupContext performs an iterative FindNode for target, returning up to
// K closest live contacts, nearest first. Cancellation or deadline stops
// the lookup between RPCs and mid-RPC, returning the context's error.
func (n *Node) LookupContext(ctx context.Context, target ID) ([]NodeInfo, LookupStats, error) {
	infos, _, stats, err := n.iterate(ctx, target, false, n.info.K)
	return infos, stats, err
}

// iterate is the shared iterative-lookup core: it binds the transport-free
// α-parallel engine in package routing to this node's RPCs. With findValue
// set it issues FindValue RPCs and stops early once Replicate holders have
// answered, merging their value sets. need is the convergence width
// (routing.LookupConfig.Need): the lookup ends once the need closest
// contacts have answered; the returned slice still holds up to K, the
// tail beyond need being unprobed fallbacks.
func (n *Node) iterate(ctx context.Context, target ID, findValue bool, need int) ([]NodeInfo, []StoredValue, LookupStats, error) {
	var stats LookupStats

	seed := n.table.Closest(target, n.info.K)
	if len(seed) == 0 {
		return nil, nil, stats, ErrNoContacts
	}

	kind := RPCFindNode
	if findValue {
		kind = RPCFindValue
	}

	var mu sync.Mutex // guards stats, values, valueSeen, holders
	var values []StoredValue
	valueSeen := map[string]bool{}
	holders := 0

	probe := func(ctx context.Context, to NodeInfo, depth int) (routing.ProbeResult, error) {
		// Per-hop probe span: records which contact was probed at which
		// iteration depth; the RPC span from callCtx nests under it.
		ctx, psp := telemetry.StartSpan(ctx, "lookup.probe")
		if psp != nil {
			psp.SetAttr("to", to.Addr)
			psp.SetAttr("depth", strconv.Itoa(depth))
		}
		// A walk converging on need contacts reads no reply past its
		// window, the need nearest non-failed candidates. That window
		// reaches one place further out for every probe that has failed
		// so far and for each of the α in flight that still may, so a
		// reply needs that many contacts. A K-wide walk sends Want 0.
		mu.Lock()
		want := need + n.info.Alpha + stats.Failed
		mu.Unlock()
		if need <= 0 || want >= n.info.K {
			want = 0
		}
		req := &Request{Kind: kind, Target: target, Want: want}
		resp, err := n.callCtx(ctx, to, req)
		psp.FinishErr(err)
		mu.Lock()
		stats.Messages++
		stats.Bytes += req.WireSize()
		if err != nil {
			stats.Failed++
			mu.Unlock()
			return routing.ProbeResult{}, err
		}
		stats.Messages++
		stats.Bytes += resp.WireSize()
		mu.Unlock()
		n.observe(resp.From)

		res := routing.ProbeResult{From: resp.From, Closer: resp.Closest}
		if findValue && len(resp.Values) > 0 {
			mu.Lock()
			holders++
			for _, v := range resp.Values {
				k := v.Publisher.String() + string(v.Data)
				if !valueSeen[k] {
					valueSeen[k] = true
					values = append(values, v)
				}
			}
			// Enough replicas answered: converging on the exact k closest
			// would add hops without adding data.
			if holders >= n.info.Replicate {
				res.Stop = true
			}
			mu.Unlock()
		}
		return res, nil
	}

	res := routing.Run(ctx, routing.LookupConfig{
		Target: target,
		Self:   n.self.ID,
		K:      n.info.K,
		Need:   need,
		Alpha:  n.info.Alpha,
		Seed:   seed,
		Probe:  probe,
		Spawn:  n.info.Go,
		Wait:   n.info.LookupWait,
	})
	n.table.NoteLookup(target)
	stats.Hops = res.Hops
	if err := ctx.Err(); err != nil {
		return nil, nil, stats, err
	}
	return res.Closest, values, stats, nil
}

// PutContext publishes data under the (namespace, key) pair, storing it on
// the Replicate closest nodes to the key. It returns the traffic cost.
func (n *Node) PutContext(ctx context.Context, namespace, key string, data []byte) (LookupStats, error) {
	return n.PutIDContext(ctx, NamespacedID(namespace, key), data)
}

// PutIDContext publishes data under an explicit key identifier. The lookup
// and the per-replica store RPCs are abandoned once ctx is done.
//
// The lookup converges on the Replicate closest contacts, not all K: a put
// stores on no more than that, so probing the other K-Replicate only to
// rank them is traffic with no reader. The result still lists up to K
// candidates nearest-first; the ones past the verified head are the
// fallbacks the STORE loop walks when a chosen replica fails.
func (n *Node) PutIDContext(ctx context.Context, key ID, data []byte) (LookupStats, error) {
	closest, _, stats, err := n.iterate(ctx, key, false, n.info.Replicate)
	if err != nil {
		return stats, err
	}
	value := StoredValue{
		Data:      data,
		Publisher: n.self.ID,
		StoredAt:  n.info.Clock(),
		TTL:       n.info.TTL,
	}
	stored := 0
	for _, c := range closest {
		if stored == n.info.Replicate {
			break
		}
		if c.ID == n.self.ID {
			continue
		}
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		req := &Request{Kind: RPCStore, Target: key, Value: value}
		resp, err := n.callCtx(ctx, c, req)
		stats.Messages++
		stats.Bytes += req.WireSize()
		if err != nil {
			stats.Failed++
			continue
		}
		stats.Messages++
		stats.Bytes += resp.WireSize()
		stored++
	}
	// If we are among the closest, hold a replica locally too.
	if n.selfAmongClosest(key, closest) || stored == 0 {
		n.store.Put(key, value)
		n.notifyStore(key)
	}
	if stored == 0 && len(closest) > 0 && closest[0].ID != n.self.ID {
		return stats, fmt.Errorf("dht: put %s: no replica stored", key.Short())
	}
	return stats, nil
}

func (n *Node) selfAmongClosest(key ID, closest []NodeInfo) bool {
	count := 0
	for _, c := range closest {
		if count == n.info.Replicate {
			return false
		}
		if Closer(n.self.ID, c.ID, key) {
			return true
		}
		count++
	}
	return count < n.info.Replicate
}

// GetContext retrieves all values stored under the (namespace, key) pair.
//
//lint:allow unusedexport the simnet and wire transport tests read values back with it
func (n *Node) GetContext(ctx context.Context, namespace, key string) ([]StoredValue, LookupStats, error) {
	return n.GetIDContext(ctx, NamespacedID(namespace, key))
}

// GetIDContext retrieves all values under an explicit key identifier,
// merging the value sets found on the replica holders. The iterative value
// lookup stops with the context's error once ctx is done.
func (n *Node) GetIDContext(ctx context.Context, key ID) ([]StoredValue, LookupStats, error) {
	// Check the local store first: we may be a replica holder.
	local := n.store.Get(key, n.info.Clock())

	_, values, stats, err := n.iterate(ctx, key, true, n.info.K)
	if err != nil && (len(local) == 0 || ctx.Err() != nil) {
		return nil, stats, err
	}
	seen := map[string]bool{}
	for _, v := range values {
		seen[v.Publisher.String()+string(v.Data)] = true
	}
	for _, v := range local {
		if !seen[v.Publisher.String()+string(v.Data)] {
			values = append(values, v)
		}
	}
	return values, stats, nil
}

// OwnerContext returns the live node currently responsible for key (the
// closest).
func (n *Node) OwnerContext(ctx context.Context, key ID) (NodeInfo, LookupStats, error) {
	closest, stats, err := n.LookupContext(ctx, key)
	if err != nil {
		return NodeInfo{}, stats, err
	}
	if len(closest) == 0 {
		return NodeInfo{}, stats, ErrNoContacts
	}
	best := closest[0]
	if Closer(n.self.ID, best.ID, key) {
		best = n.self
	}
	return best, stats, nil
}

// SendContext routes an application message to the node responsible for
// key and returns its reply. This is the primitive PIER uses to ship query
// plans and rehashed tuples between keyword owners. Both the owner lookup
// and the application round-trip abort once ctx is done.
func (n *Node) SendContext(ctx context.Context, key ID, app string, data []byte) ([]byte, LookupStats, error) {
	owner, stats, err := n.OwnerContext(ctx, key)
	if err != nil {
		return nil, stats, err
	}
	if owner.ID == n.self.ID {
		n.mu.Lock()
		h := n.handlers[app]
		n.mu.Unlock()
		if h == nil {
			return nil, stats, fmt.Errorf("dht: no app handler %q", app)
		}
		return h(n.self, data), stats, nil
	}
	reply, s2, err := n.SendToContext(ctx, owner, app, data)
	stats.Add(s2)
	return reply, stats, err
}

// SendToContext delivers an application message directly to a known node.
func (n *Node) SendToContext(ctx context.Context, to NodeInfo, app string, data []byte) ([]byte, LookupStats, error) {
	var stats LookupStats
	req := &Request{Kind: RPCApp, App: app, Data: data}
	resp, err := n.callCtx(ctx, to, req)
	stats.Messages++
	stats.Bytes += req.WireSize()
	stats.Hops++
	if err != nil {
		stats.Failed++
		return nil, stats, err
	}
	stats.Messages++
	stats.Bytes += resp.WireSize()
	if !resp.OK {
		return nil, stats, fmt.Errorf("dht: app %q rejected by %s", app, to.ID.Short())
	}
	return resp.Data, stats, nil
}

// LocalGet returns values held in this node's own store, without network.
func (n *Node) LocalGet(key ID) []StoredValue {
	return n.store.Get(key, n.info.Clock())
}

// LocalPut stores a value directly in this node's own store.
func (n *Node) LocalPut(key ID, data []byte) {
	n.store.Put(key, StoredValue{
		Data:      data,
		Publisher: n.self.ID,
		StoredAt:  n.info.Clock(),
		TTL:       n.info.TTL,
	})
	n.notifyStore(key)
}

// SetStoreObserver installs fn to run after every local store mutation
// (nil removes it). fn must be fast and must not call back into the
// node's network operations.
func (n *Node) SetStoreObserver(fn func(key ID)) {
	if fn == nil {
		n.storeObs.Store(nil)
		return
	}
	n.storeObs.Store(&fn)
}

func (n *Node) notifyStore(key ID) {
	if fn := n.storeObs.Load(); fn != nil {
		(*fn)(key)
	}
}

// HandleApp invokes this node's own handler for app, exactly as if the
// message had arrived over the network from itself. Callers that resolve
// holders themselves (replica fan-out reads) use it when the local node
// is the chosen holder.
func (n *Node) HandleApp(app string, data []byte) ([]byte, error) {
	n.mu.Lock()
	h := n.handlers[app]
	n.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("dht: no app handler %q", app)
	}
	return h(n.self, data), nil
}

// Republish re-stores every locally held value this node published,
// refreshing replicas after churn through full iterative lookups. It
// returns the number of values republished. Keys are processed in ID order
// so the RPC sequence is reproducible run-over-run. The cheaper
// table-local RepublishTick is what the maintenance loop runs; Republish
// remains for explicit full repair.
//
//lint:allow unusedexport the pier churn and store restart tests republish with it
func (n *Node) Republish() (int, LookupStats) {
	keys := n.store.Keys()
	sort.Slice(keys, func(i, j int) bool { return Less(keys[i], keys[j]) })
	type kv struct {
		key ID
		val StoredValue
	}
	var all []kv
	now := n.info.Clock()
	for _, k := range keys {
		for _, v := range n.store.Get(k, now) {
			if v.Publisher == n.self.ID {
				all = append(all, kv{k, v})
			}
		}
	}

	var stats LookupStats
	for _, e := range all {
		s, _ := n.PutIDContext(n.ctx, e.key, e.val.Data)
		stats.Add(s)
	}
	return len(all), stats
}

// remainingTTL converts a stored value's (StoredAt, TTL) pair to the
// lifetime it has left at now. ok is false once the value has expired.
func remainingTTL(v StoredValue, now time.Duration) (rem time.Duration, ok bool) {
	if v.TTL <= 0 {
		return 0, true
	}
	rem = v.TTL - (now - v.StoredAt)
	return rem, rem > 0
}

// RepublishTick pushes every locally held value that is due — StoredAt
// older than half the republish interval — to the Replicate closest
// contacts in the routing table, batched into one Provide RPC per
// destination. Unlike Republish it issues no lookups: the table's own view
// of the neighborhood is authoritative enough for periodic repair, and the
// receiver-side StoredAt rebase means one holder per period refreshes the
// whole replica set. Keys go in ID order and destinations in first-use
// order, keeping virtual-time replays byte-identical. Returns how many
// values were pushed; a closed node pushes none.
func (n *Node) RepublishTick() (int, LookupStats) {
	var stats LookupStats
	if n.ctx.Err() != nil {
		return 0, stats
	}
	now := n.info.Clock()
	due := n.info.RepublishInterval / 2

	keys := n.store.Keys()
	sort.Slice(keys, func(i, j int) bool { return Less(keys[i], keys[j]) })

	type destBatch struct {
		to   NodeInfo
		recs []ProviderRecord
	}
	batches := map[string]*destBatch{}
	var order []string
	values := 0
	for _, k := range keys {
		for _, v := range n.store.Get(k, now) {
			if now-v.StoredAt < due {
				continue
			}
			rem, ok := remainingTTL(v, now)
			if !ok {
				continue
			}
			targets := n.table.Closest(k, n.info.Replicate)
			if len(targets) == 0 {
				continue
			}
			values++
			rec := ProviderRecord{Key: k, Data: v.Data, Publisher: v.Publisher, TTL: rem}
			for _, t := range targets {
				b := batches[t.Addr]
				if b == nil {
					b = &destBatch{to: t}
					batches[t.Addr] = b
					order = append(order, t.Addr)
				}
				b.recs = append(b.recs, rec)
			}
			// Rebase our own copy too, so the value is due again only
			// after a full half-interval.
			n.store.Put(k, StoredValue{Data: v.Data, Publisher: v.Publisher, StoredAt: now, TTL: rem})
		}
	}

	for _, addr := range order {
		b := batches[addr]
		req := &Request{Kind: RPCProvide, Records: b.recs}
		resp, err := n.callCtx(n.ctx, b.to, req)
		stats.Messages++
		stats.Bytes += req.WireSize()
		if err != nil {
			stats.Failed++
			continue
		}
		stats.Messages++
		stats.Bytes += resp.WireSize()
	}
	if values > 0 {
		n.republishedValues.Add(int64(values))
	}
	return values, stats
}

// RefreshTick looks up a random target inside each of up to max stale
// buckets — buckets with no activity for RefreshInterval — repopulating
// regions of the ID space the node has not touched organically. Returns
// how many buckets were refreshed; a closed node refreshes none.
func (n *Node) RefreshTick(max int) (int, LookupStats) {
	if max <= 0 {
		max = maxRefreshPerTick
	}
	var stats LookupStats
	if n.ctx.Err() != nil {
		return 0, stats
	}
	stale := n.table.StaleBuckets(n.info.RefreshInterval, max)
	for _, b := range stale {
		target := n.refreshTarget(b)
		if _, s, err := n.LookupContext(n.ctx, target); err == nil {
			stats.Add(s)
		}
		n.table.NoteRefreshed(b)
		n.refreshedBuckets.Add(1)
	}
	return len(stale), stats
}

func (n *Node) refreshTarget(bucket int) ID {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.table.RefreshTarget(bucket, n.rng)
}

// jitter returns a uniform duration in [0, d), from the node's own seeded
// rng so replays stay deterministic while nodes desynchronize.
func (n *Node) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return time.Duration(n.rng.Int63n(int64(d)))
}

// pause blocks for d — through Config.Sleep when set, else on a timer that
// Close interrupts — and reports whether the node is still open.
func (n *Node) pause(d time.Duration) bool {
	if n.info.Sleep != nil {
		n.info.Sleep(d)
	} else {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-n.ctx.Done():
		}
		t.Stop()
	}
	return n.ctx.Err() == nil
}

// StartMaintenance launches the routing and replication maintenance loops:
// bucket refresh every RefreshInterval and provider-record republish every
// half RepublishInterval, each with a jittered start so a cluster's nodes
// spread their repair traffic instead of thundering together. While
// maintenance runs, newly discovered contacts also receive handoffs of
// values they are now among the closest holders for (join repair). The
// loops run through Config.Go/Sleep, so under the virtual-time scheduler
// they are ordinary clock tasks. The returned stop is idempotent; after it
// is called each loop exits at its next wakeup. Closing the node also ends
// them: a default (timer) sleep returns at once, a Config.Sleep one at its
// next wakeup.
func (n *Node) StartMaintenance() (stop func()) {
	if n.maintOn.Swap(true) {
		return func() {}
	}
	var stopped atomic.Bool
	every := func(period time.Duration, tick func()) {
		for d := n.jitter(period); n.pause(d) && !stopped.Load(); d = period {
			tick()
		}
	}
	n.info.Go(func() { every(n.info.RefreshInterval, func() { n.RefreshTick(maxRefreshPerTick) }) })
	n.info.Go(func() { every(n.info.RepublishInterval/2, func() { n.RepublishTick() }) })
	return func() {
		if !stopped.Swap(true) {
			n.maintOn.Store(false)
		}
	}
}

// maybeHandoff hands local values over to a newly discovered contact, at
// most once per peer per half republish interval.
func (n *Node) maybeHandoff(peer NodeInfo) {
	if !n.maintOn.Load() {
		return
	}
	now := n.info.Clock()
	gap := n.info.RepublishInterval / 2
	n.handoffMu.Lock()
	if last, seen := n.lastHandoff[peer.ID]; seen && now-last < gap {
		n.handoffMu.Unlock()
		return
	}
	n.lastHandoff[peer.ID] = now
	n.handoffMu.Unlock()
	n.info.Go(func() { n.handoffTo(peer) })
}

// handoffTo pushes to peer every local value it is now among the Replicate
// closest known contacts for, in one batched Provide RPC.
func (n *Node) handoffTo(peer NodeInfo) {
	now := n.info.Clock()
	keys := n.store.Keys()
	sort.Slice(keys, func(i, j int) bool { return Less(keys[i], keys[j]) })
	var recs []ProviderRecord
	for _, k := range keys {
		responsible := false
		for _, c := range n.table.Closest(k, n.info.Replicate) {
			if c.ID == peer.ID {
				responsible = true
				break
			}
		}
		if !responsible {
			continue
		}
		for _, v := range n.store.Get(k, now) {
			rem, ok := remainingTTL(v, now)
			if !ok {
				continue
			}
			recs = append(recs, ProviderRecord{Key: k, Data: v.Data, Publisher: v.Publisher, TTL: rem})
		}
	}
	if len(recs) == 0 {
		return
	}
	if _, err := n.callCtx(n.ctx, peer, &Request{Kind: RPCProvide, Records: recs}); err == nil {
		n.handoffsSent.Add(1)
	}
}

// RoutingStats is a point-in-time snapshot of the node's routing table
// plus its lifetime maintenance counters, surfaced through the daemon's
// SIGUSR1 dump and the Explain path.
type RoutingStats struct {
	Table             TableStats
	ProvidesReceived  int64
	HandoffsSent      int64
	RepublishedValues int64
	RefreshedBuckets  int64
}

// RoutingStats returns the node's routing snapshot.
func (n *Node) RoutingStats() RoutingStats {
	return RoutingStats{
		Table:             n.table.Stats(),
		ProvidesReceived:  n.providesReceived.Load(),
		HandoffsSent:      n.handoffsSent.Load(),
		RepublishedValues: n.republishedValues.Load(),
		RefreshedBuckets:  n.refreshedBuckets.Load(),
	}
}

// Format renders the snapshot as a human-readable multi-line dump.
func (s RoutingStats) Format() string {
	var b strings.Builder
	c := s.Table.Counters
	fmt.Fprintf(&b, "routing: %d contacts across %d buckets\n", s.Table.Contacts, s.Table.NonEmptyBuckets)
	fmt.Fprintf(&b, "  table: inserts=%d refreshes=%d evictions=%d drops_full=%d promotions=%d\n",
		c.Inserts, c.Refreshes, c.Evictions, c.DropsFull, c.Promotions)
	fmt.Fprintf(&b, "  maintenance: provides_received=%d handoffs_sent=%d republished_values=%d refreshed_buckets=%d\n",
		s.ProvidesReceived, s.HandoffsSent, s.RepublishedValues, s.RefreshedBuckets)
	for _, f := range s.Table.Fill {
		fmt.Fprintf(&b, "  bucket %3d: %d contacts, %d replacements\n", f.Index, f.Entries, f.Replacements)
	}
	return b.String()
}
