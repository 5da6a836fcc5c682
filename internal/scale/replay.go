package scale

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/gnutella"
	"piersearch/internal/hotcache"
	"piersearch/internal/metrics"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/simnet"
	"piersearch/internal/telemetry"
	"piersearch/internal/trace"
)

// ChurnParams parameterises mid-run node churn. Zero MeanSession disables
// churn.
type ChurnParams struct {
	MeanSession  time.Duration
	MeanDowntime time.Duration
}

// Config parameterises one replay.
type Config struct {
	Nodes int   // cluster size (required)
	Seed  int64 // drives IDs, latency sampling, trace generation, churn

	// StableCore is the number of nodes exempt from churn; publish and
	// query origins are drawn from it, so an origin is never detached
	// while one of its chains is in flight. Default max(4, Nodes/100).
	StableCore int

	Trace trace.Config // corpus + query workload; Hosts is forced to Nodes

	Publishes  int     // measured publishes (default 100)
	PublishQPS float64 // publish arrival rate in virtual time (default QPS)
	QPS        float64 // query arrival rate in virtual time (default 50)

	Limit    int                    // per-query result limit (default 10)
	Strategy piersearch.Strategy    // query plan (default StrategyJoin)
	Mode     piersearch.PublishMode // index layout (default ModeInverted)

	Replicate int                 // DHT replication factor (default dht's 3)
	Latency   simnet.LatencyModel // nil means simnet.DefaultWideArea

	Churn ChurnParams

	// HotKey parameterises the post-churn hot-key phases (baseline vs
	// cached Zipf replay). HotKey.Queries == 0 disables them.
	HotKey HotKeyParams

	// TraceSample records a distributed trace for every TraceSample-th
	// replayed query (0 disables tracing entirely): non-core nodes get
	// span rings, sampled queries run under a root span, and the report
	// carries one TraceSummary per sample. Unsampled queries carry no
	// trace context and record nothing.
	TraceSample int

	// RoutingLookups is the number of sampled iterative FindNode lookups
	// in the routing measurement phase (0 disables it). Targets are
	// uniform random IDs, origins rotate through the stable core.
	RoutingLookups int

	// Survival parameterises the churn-survival phase. Survival.Keys == 0
	// disables it.
	Survival SurvivalParams
}

// SurvivalParams parameterises the churn-survival phase: RemoveFrac of
// the non-core population is removed permanently (no rejoin) while every
// node runs its republish/refresh maintenance loops, then Keys sampled
// pre-removal keys are re-queried from stable-core origins. Refresh and
// Republish override the cluster's dht maintenance intervals so the
// repair dynamics fit inside the replay's virtual-time span.
type SurvivalParams struct {
	Keys       int           // sampled pre-churn keys to re-query (0 disables)
	RemoveFrac float64       // fraction of non-core nodes removed (default 0.3)
	Refresh    time.Duration // bucket-refresh interval (default 10m)
	Republish  time.Duration // provider-record republish interval (default 20s)
}

func (c Config) withDefaults() Config {
	if c.StableCore <= 0 {
		c.StableCore = c.Nodes / 100
		if c.StableCore < 4 {
			c.StableCore = 4
		}
	}
	if c.StableCore > c.Nodes {
		c.StableCore = c.Nodes
	}
	if c.QPS <= 0 {
		c.QPS = 50
	}
	if c.PublishQPS <= 0 {
		c.PublishQPS = c.QPS
	}
	if c.Publishes <= 0 {
		c.Publishes = 100
	}
	if c.Limit <= 0 {
		c.Limit = 10
	}
	c.Trace.Hosts = c.Nodes
	if c.Trace.Seed == 0 {
		c.Trace.Seed = c.Seed
	}
	if c.HotKey.Queries > 0 {
		if c.HotKey.QPS <= 0 {
			c.HotKey.QPS = 200
		}
		if c.HotKey.Terms <= 0 {
			c.HotKey.Terms = 12
		}
		if c.HotKey.Origins <= 0 {
			c.HotKey.Origins = 4
		}
		if c.HotKey.Origins > c.StableCore {
			c.HotKey.Origins = c.StableCore
		}
		if c.HotKey.ZipfS <= 0 {
			c.HotKey.ZipfS = 1.1
		}
		if c.HotKey.Warmup <= 0 {
			c.HotKey.Warmup = c.HotKey.Origins * c.HotKey.Terms
		}
	}
	if c.Survival.Keys > 0 {
		if c.Survival.RemoveFrac <= 0 {
			c.Survival.RemoveFrac = 0.3
		}
		if c.Survival.RemoveFrac > 1 {
			c.Survival.RemoveFrac = 1
		}
		if c.Survival.Refresh <= 0 {
			c.Survival.Refresh = 10 * time.Minute
		}
		if c.Survival.Republish <= 0 {
			c.Survival.Republish = 20 * time.Second
		}
	}
	return c
}

func interval(qps float64) time.Duration {
	return time.Duration(float64(time.Second) / qps)
}

// schemaFor maps a piersearch table name to its schema for offline key
// derivation during the load phase.
func schemaFor(table string) (*pier.Schema, error) {
	switch table {
	case piersearch.TableItem:
		return piersearch.ItemSchema, nil
	case piersearch.TableInverted:
		return piersearch.InvertedSchema, nil
	case piersearch.TableInvertedCache:
		return piersearch.InvertedCacheSchema, nil
	}
	return nil, fmt.Errorf("scale: unknown table %s", table)
}

// Run executes one full replay: build cluster, load the corpus by direct
// placement (zero traffic), replay measured publishes, then replay the
// query workload with churn injected, and report per-phase statistics.
// The same Config always yields an identical Report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("scale: Nodes must be positive")
	}
	clock := NewClock()
	cl, err := NewCluster(cfg.Nodes, cfg.Seed, clock, cfg.Latency, dht.Config{
		Replicate:         cfg.Replicate,
		RefreshInterval:   cfg.Survival.Refresh,
		RepublishInterval: cfg.Survival.Republish,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	engines := make([]*pier.Engine, cfg.Nodes)
	for i, n := range cl.Nodes {
		engines[i] = pier.NewEngine(n, pier.Config{OrderBySelectivity: true, Workers: 1})
		piersearch.RegisterSchemas(engines[i])
	}

	tr := trace.Generate(cfg.Trace)
	replicate := cl.Nodes[0].Config().Replicate

	// ---- Load phase: place the corpus directly on each tuple's true
	// replica set. No RPCs, no virtual time: this models the index state a
	// long-running network has already built.
	tok := piersearch.Tokenizer{}
	placement := tr.Placement(cfg.Nodes)
	tuplesPlaced := 0
	instances := 0
	var placedKeys []dht.ID
	for rank, f := range tr.Files {
		keywords := tok.Tokenize(f.Name)
		if len(keywords) == 0 {
			continue
		}
		for _, h := range placement[rank] {
			file := piersearch.File{Name: f.Name, Size: fileSize(rank), Host: cl.Nodes[h].Info().Addr, Port: 6346}
			instances++
			for _, pub := range piersearch.IndexTuples(file, keywords, cfg.Mode) {
				sch, err := schemaFor(pub.Table)
				if err != nil {
					return nil, err
				}
				key, err := sch.IndexKey(pub.Tuple)
				if err != nil {
					return nil, err
				}
				id := dht.NamespacedID(pub.Table, key)
				data := pub.Tuple.Encode(nil)
				for _, owner := range cl.Closest(id, replicate) {
					owner.LocalPut(id, data)
				}
				placedKeys = append(placedKeys, id)
				tuplesPlaced++
			}
		}
	}

	rep := newReport(cfg, tr)
	rep.Load = LoadStats{
		DistinctFiles: len(tr.Files),
		Instances:     instances,
		TuplesPlaced:  tuplesPlaced,
		Replicate:     replicate,
	}

	// Every engine runs the hot tier during the main phases, exactly as a
	// deployed node would; the hot-key phases later swap tiers out and back
	// in to isolate the tier's effect.
	tiers := make([]*hotcache.Tier, len(engines))
	tierOpts := scaleTierOptions(clock)
	for i, e := range engines {
		tiers[i] = hotcache.NewTier(tierOpts)
		e.SetHotTier(tiers[i])
	}

	// The harness serialises all tasks, but the stats sink takes a lock
	// anyway so the recording pattern is safe under any scheduler.
	var mu sync.Mutex

	// ---- Publish phase: measured publishes through the real engine put
	// path from stable-core origins, paced at PublishQPS.
	publishers := make([]*piersearch.Publisher, cfg.StableCore)
	for i := 0; i < cfg.StableCore; i++ {
		publishers[i] = piersearch.NewPublisher(engines[i], cfg.Mode, tok)
	}
	pubLat := metrics.NewHistogram(1e-3, 1e3, 40)
	pubFailed := 0
	pubFails := map[string]int{}
	msgs0, bytes0 := cl.Net.Messages(), cl.Net.Bytes()
	err = clock.Run(func() {
		step := interval(cfg.PublishQPS)
		for i := 0; i < cfg.Publishes; i++ {
			i := i
			clock.Go(func() {
				rank := (i * 37) % len(tr.Files)
				file := piersearch.File{
					Name: tr.Files[rank].Name,
					Size: fileSize(rank),
					Host: fmt.Sprintf("pub-%d", i),
					Port: 6346,
				}
				start := clock.Now()
				_, perr := publishers[i%cfg.StableCore].PublishFile(file)
				elapsed := clock.Now() - start
				mu.Lock()
				if perr != nil {
					pubFailed++
					pubFails[classifyFailure(perr)]++
				} else {
					pubLat.Observe(elapsed.Seconds())
				}
				mu.Unlock()
			})
			clock.Sleep(step)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scale: publish phase: %w", err)
	}
	msgs1, bytes1 := cl.Net.Messages(), cl.Net.Bytes()
	rep.Publish = PhaseStats{
		Count:     cfg.Publishes,
		Failed:    pubFailed,
		Failures:  failureCounts(pubFails),
		LatencyMs: quantilesMs(pubLat),
		Messages:  msgs1 - msgs0,
		Bytes:     bytes1 - bytes0,
	}

	// ---- Routing phase: raw iterative FindNode lookups, before churn
	// starts perturbing the tables, plus a routing-table census.
	if cfg.RoutingLookups > 0 {
		rr, err := runRoutingPhase(cfg, clock, cl)
		if err != nil {
			return nil, fmt.Errorf("scale: routing phase: %w", err)
		}
		rep.Routing = rr
		// Rebase the traffic baseline so the query phase measures only its
		// own messages.
		msgs1, bytes1 = cl.Net.Messages(), cl.Net.Bytes()
	}

	// ---- Query phase, with churn over the non-core population.
	queries := tr.Queries
	step := interval(cfg.QPS)
	population := cfg.Nodes - cfg.StableCore
	var sched gnutella.ChurnSchedule
	var churnEnd time.Duration
	if cfg.Churn.MeanSession > 0 && population > 0 {
		span := step*time.Duration(len(queries)) + 30*time.Second
		sched = gnutella.GenerateChurn(gnutella.ChurnConfig{
			Hosts:        population,
			Horizon:      span,
			MeanSession:  cfg.Churn.MeanSession,
			MeanDowntime: cfg.Churn.MeanDowntime,
			Seed:         cfg.Seed + 101,
		})
		base := clock.Now()
		churnEnd = base + span
		for _, ev := range sched.Events {
			addr := cl.Nodes[cfg.StableCore+ev.Host].Info().Addr
			up := ev.Up
			clock.At(base+ev.At, func() {
				if up {
					cl.Net.Reattach(addr)
				} else {
					cl.Net.Detach(addr)
				}
			})
		}
	}
	rep.Churn = ChurnStats{
		Population:  population,
		Events:      len(sched.Events),
		MaxDownFrac: round3(sched.MaxDownFrac()),
	}

	searches := make([]*piersearch.Search, cfg.StableCore)
	for i := 0; i < cfg.StableCore; i++ {
		searches[i] = piersearch.NewSearch(engines[i], tok)
	}
	qLat := metrics.NewHistogram(1e-3, 1e3, 40)
	qMatchBytes := metrics.NewHistogram(1, 1e8, 10)
	qHopsH := metrics.NewHistogram(1, 1e4, 40)
	qFailed, qMatches, qShipped, qHops := 0, 0, 0, 0
	qFails := map[string]int{}
	var traces []TraceSummary
	var originTracers []*telemetry.Tracer
	if cfg.TraceSample > 0 {
		originTracers = attachTracers(cl, cfg.StableCore, clock)
	}
	cache0 := sumTiers(tiers)
	err = clock.Run(func() {
		for i := range queries {
			i := i
			clock.Go(func() {
				origin := i % cfg.StableCore
				sampled := cfg.TraceSample > 0 && i%cfg.TraceSample == 0
				start := clock.Now()
				var results []piersearch.Result
				var stats piersearch.SearchStats
				var spans []telemetry.Span
				var qerr error
				if sampled {
					results, stats, spans, qerr = tracedQuery(originTracers[origin], searches[origin], queries[i].Text, cfg.Strategy, cfg.Limit)
				} else {
					results, stats, qerr = searches[origin].Query(queries[i].Text, cfg.Strategy, cfg.Limit)
				}
				elapsed := clock.Now() - start
				mu.Lock()
				defer mu.Unlock()
				if sampled {
					traces = append(traces, summarizeTrace(i, queries[i].Text, spans, qerr != nil))
				}
				if qerr != nil {
					qFailed++
					qFails[classifyFailure(qerr)]++
					return
				}
				qLat.Observe(elapsed.Seconds())
				qMatchBytes.Observe(float64(stats.MatchBytes))
				qHopsH.Observe(float64(stats.Hops))
				qMatches += len(results)
				qShipped += stats.PostingShipped
				qHops += stats.Hops
			})
			clock.Sleep(step)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scale: query phase: %w", err)
	}
	msgs2, bytes2 := cl.Net.Messages(), cl.Net.Bytes()
	qCache := sumTiers(tiers).sub(cache0)
	rep.Query = QueryStats{
		Count:          len(queries),
		Failed:         qFailed,
		Failures:       failureCounts(qFails),
		Matches:        qMatches,
		PostingShipped: qShipped,
		LatencyMs:      quantilesMs(qLat),
		MatchBytes:     quantilesRaw(qMatchBytes),
		Hops:           quantilesRaw(qHopsH),
		HopsMean:       round3(mean(qHops, len(queries)-qFailed)),
		Messages:       msgs2 - msgs1,
		Bytes:          bytes2 - bytes1,
		Cache:          &qCache,
	}
	sortTraces(traces)
	rep.Traces = traces

	// restore drains churn events still queued past the query phase and
	// reattaches every node — the common precondition of the hot-key and
	// survival phases. Idempotent so whichever phase runs first pays it.
	restored := false
	restore := func() error {
		if restored {
			return nil
		}
		restored = true
		if churnEnd <= 0 {
			return nil
		}
		if err := clock.Run(func() {
			if d := churnEnd + time.Second - clock.Now(); d > 0 {
				clock.Sleep(d)
			}
		}); err != nil {
			return fmt.Errorf("scale: churn drain: %w", err)
		}
		for i := cfg.StableCore; i < cfg.Nodes; i++ {
			cl.Net.Reattach(cl.Nodes[i].Info().Addr)
		}
		return nil
	}

	// ---- Hot-key phases: restore every node, then replay the Zipf
	// workload twice (baseline without tiers, then with fresh ones) over
	// identical networks.
	if cfg.HotKey.Queries > 0 {
		if err := restore(); err != nil {
			return nil, err
		}
		terms := hotTerms(tr, cfg.HotKey.Terms)
		if len(terms) > 0 {
			h := &hotRunner{
				cfg:      cfg,
				clock:    clock,
				cl:       cl,
				engines:  engines,
				searches: searches[:cfg.HotKey.Origins],
				terms:    terms,
				picks: zipfPicks(rand.New(rand.NewSource(cfg.Seed+202)),
					cfg.HotKey.Queries, len(terms), cfg.HotKey.ZipfS),
			}
			hk, err := runHotKey(h)
			if err != nil {
				return nil, fmt.Errorf("scale: hot-key phase: %w", err)
			}
			rep.HotKey = hk
		}
	}

	// ---- Survival phase: permanent removals under live maintenance, then
	// re-queries of keys placed before any churn began.
	if cfg.Survival.Keys > 0 && len(placedKeys) > 0 {
		if err := restore(); err != nil {
			return nil, err
		}
		sv, err := runSurvival(cfg, clock, cl, placedKeys)
		if err != nil {
			return nil, fmt.Errorf("scale: survival phase: %w", err)
		}
		rep.Survival = sv
	}

	rep.VirtualSeconds = round3(clock.Now().Seconds())
	return rep, nil
}

// fileSize derives a deterministic file size from a trace rank.
func fileSize(rank int) int64 { return int64(1<<20 + rank) }

func mean(sum, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
