// Command piersearch is both halves of the network query service.
//
// Daemon mode runs a standalone PIERSearch node over real TCP: it serves
// a Kademlia DHT node, joins an existing network, publishes shared files,
// and — with -serve — answers the streaming query-service protocol so
// remote clients can search without joining the DHT:
//
//	piersearch -listen 127.0.0.1:4000 -serve 127.0.0.1:4100 \
//	    -store disk -data-dir /var/lib/piersearch -max-queries 32 -daemon
//
// More nodes join the DHT side and publish:
//
//	piersearch -listen 127.0.0.1:4001 -join 127.0.0.1:4000 \
//	    -publish "Madonna - Like a Prayer.mp3" -publish "Rare Demo Tape.mp3"
//
// -bootstrap joins through several seeds at once (any reachable one
// suffices) and is the preferred form for long-running daemons; the
// iterative self-lookup it performs fills the routing table beyond the
// seeds themselves. A running daemon dumps its routing table and
// maintenance counters to the log on SIGUSR1:
//
//	piersearch -listen 127.0.0.1:4002 -bootstrap 127.0.0.1:4000,127.0.0.1:4001 -daemon
//	kill -USR1 $(pidof piersearch)
//
// -debug-addr starts the live telemetry plane: an HTTP listener serving
// /metrics (every registered counter, gauge and histogram as text),
// /traces (recent distributed traces, rendered as trees), /healthz, and
// net/http/pprof under /debug/pprof/:
//
//	piersearch -listen 127.0.0.1:4000 -serve 127.0.0.1:4100 \
//	    -debug-addr 127.0.0.1:6060 -daemon
//	curl -s localhost:6060/metrics
//
// -trace records distributed spans for every query this process runs or
// submits and prints the assembled trace tree after -search results.
//
// Client mode (-connect) is the other half of the split: a thin process
// that never joins the DHT. It submits queries and publishes to a daemon
// over the streaming protocol; results print as the daemon's plan
// produces them:
//
//	piersearch -connect 127.0.0.1:4100 -search "rare demo"
//	piersearch -connect 127.0.0.1:4100 -search "rare demo" -explain
//	piersearch -connect 127.0.0.1:4100 -publish "My Shared Mix.mp3"
//
// A disk-backed daemon that is restarted with the same -data-dir recovers
// its replicas from the write-ahead log and serves them without anyone
// republishing. SIGINT/SIGTERM shut the node down cleanly: the WAL is
// flushed and fsynced and the directory lock released.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/service"
	"piersearch/internal/store"
	"piersearch/internal/telemetry"
	"piersearch/internal/wire"
)

type publishList []string

func (p *publishList) String() string     { return strings.Join(*p, ",") }
func (p *publishList) Set(v string) error { *p = append(*p, v); return nil }

// main delegates to run so the deferred shutdown path (flush the WAL,
// fsync, release the lock file) executes before the process exits with a
// meaningful status code — log.Fatalf would skip the defers.
func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address for the DHT node (daemon mode)")
	join := flag.String("join", "", "address of an existing node to bootstrap from")
	bootstrap := flag.String("bootstrap", "", "comma-separated addresses of existing nodes to join through (multi-seed bootstrap)")
	serve := flag.String("serve", "", "TCP listen address for the query service (empty = not served)")
	connect := flag.String("connect", "", "query-service daemon to talk to (client mode: no DHT node is started)")
	search := flag.String("search", "", "run one keyword query and exit")
	strategy := flag.String("strategy", "cache", "query strategy: cache or join")
	limit := flag.Int("limit", 50, "max results per query")
	explain := flag.Bool("explain", false, "print the query plan before the results")
	maxQueries := flag.Int("max-queries", 64, "admission control: concurrent queries the daemon executes before shedding")
	daemon := flag.Bool("daemon", false, "keep serving after startup (SIGINT/SIGTERM to stop)")
	stdinPublish := flag.Bool("stdin", false, "publish one filename per stdin line")
	storeKind := flag.String("store", "mem", "local value store: mem or disk")
	dataDir := flag.String("data-dir", "piersearch-data", "directory for the disk store's WAL and segments")
	syncWrites := flag.Bool("sync", false, "fsync every group commit (disk store only)")
	cache := flag.Bool("cache", true, "hot-key tier: posting/result cache, singleflight, replica fan-out")
	cacheBytes := flag.Int64("cache-bytes", 32<<20, "hot-key cache budget in bytes")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Second, "hot-key cache entry TTL")
	perClientQPS := flag.Int("per-client-qps", 0, "admission control: per-client queries+publishes/s (0 disables)")
	perClientBurst := flag.Int("per-client-burst", 0, "per-client burst allowance (0 = same as -per-client-qps)")
	debugAddr := flag.String("debug-addr", "", "HTTP listen address for /metrics, /traces, /healthz and pprof (empty = off)")
	trace := flag.Bool("trace", false, "record distributed trace spans; -search prints the trace tree")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	var publishes publishList
	flag.Var(&publishes, "publish", "filename to publish (repeatable)")
	flag.Parse()
	strat, err := parseStrategy(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "piersearch: %v\n", err)
		flag.Usage()
		return 2
	}

	logger := telemetry.NewTextLogger(os.Stderr, telemetry.ParseLevel(*logLevel))

	// One context for the whole process: the first SIGINT/SIGTERM cancels
	// in-flight queries and unblocks the daemon wait so the deferred
	// shutdown path runs — the disk store must flush its WAL, fsync and
	// release its lock file rather than die mid-commit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *connect != "" {
		return runClient(ctx, clientConfig{
			addr: *connect, search: *search, strat: strat, limit: *limit, explain: *explain,
			publishes: publishes, stdinPublish: *stdinPublish, trace: *trace, logger: logger,
		})
	}
	return runDaemon(ctx, daemonConfig{
		listen: *listen, join: *join, bootstrap: *bootstrap, serve: *serve, search: *search,
		strat: strat, limit: *limit, explain: *explain, maxQueries: *maxQueries,
		daemon: *daemon, stdinPublish: *stdinPublish, storeKind: *storeKind,
		dataDir: *dataDir, syncWrites: *syncWrites, publishes: publishes,
		cache: *cache, cacheBytes: *cacheBytes, cacheTTL: *cacheTTL,
		perClientQPS: *perClientQPS, perClientBurst: *perClientBurst,
		debugAddr: *debugAddr, trace: *trace, logger: logger,
	})
}

// parseStrategy maps the -strategy flag to a query plan. Anything but the
// two plan names is an error: a typo must not silently run the cache plan.
func parseStrategy(s string) (piersearch.Strategy, error) {
	switch s {
	case "cache":
		return piersearch.StrategyCache, nil
	case "join":
		return piersearch.StrategyJoin, nil
	}
	return 0, fmt.Errorf("unknown -strategy %q (want cache or join)", s)
}

// --- client mode -------------------------------------------------------------

type clientConfig struct {
	addr, search string
	strat        piersearch.Strategy
	limit        int
	explain      bool
	publishes    publishList
	stdinPublish bool
	trace        bool
	logger       *telemetry.Logger
}

// runClient is the thin half of the client/daemon split: it talks the
// streaming query-service protocol to a daemon and never touches the DHT.
func runClient(ctx context.Context, cc clientConfig) int {
	logger := cc.logger
	client := service.Dial(cc.addr)
	defer client.Close()
	if cc.trace {
		client.Tracer = telemetry.NewTracer("client")
	}

	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "localhost"
	}
	publishOne := func(name string) bool {
		f := piersearch.File{Name: name, Size: int64(len(name)) * 1000, Host: host, Port: 6346}
		stats, err := client.Publish(ctx, f, piersearch.ModeBoth)
		if err != nil {
			logger.Error("publish failed", "file", name, "err", err)
			return false
		}
		logger.Info("published", "file", name, "daemon", cc.addr, "tuples", stats.Tuples, "bytes", stats.Bytes)
		return true
	}
	for _, name := range cc.publishes {
		if !publishOne(name) {
			return 1
		}
	}
	if cc.stdinPublish {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() && ctx.Err() == nil {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				publishOne(line)
			}
		}
	}

	if cc.search != "" {
		q := piersearch.Query{Text: cc.search, Strategy: cc.strat, Limit: cc.limit}
		if cc.explain {
			text, err := client.Explain(ctx, q)
			if err != nil {
				logger.Error("explain failed", "err", err)
				return 1
			}
			fmt.Printf("plan for %q on %s:\n%s\n", cc.search, cc.addr, text)
		}
		rs, err := client.Query(ctx, q)
		if err != nil {
			logger.Error("search failed", "err", err)
			return 1
		}
		defer rs.Close()
		if code := printResults(rs, cc.search, cc.strat, cc.trace, logger); code != 0 {
			return code
		}
	}
	return 0
}

// printResults streams a result set to stdout, then its cost line and —
// when tracing — the assembled distributed trace tree.
func printResults(rs *piersearch.ResultStream, query string, strat piersearch.Strategy, trace bool, logger *telemetry.Logger) int {
	n := 0
	for {
		r, err := rs.Next()
		if errors.Is(err, piersearch.ErrDone) {
			break
		}
		if err != nil {
			logger.Error("search failed", "err", err)
			return 1
		}
		n++
		fmt.Printf("  %-50s %10d bytes  %s:%d\n", r.File.Name, r.File.Size, r.File.Host, r.File.Port)
	}
	stats := rs.Stats()
	fmt.Printf("%d results for %q (%v, %d msgs, %d bytes, %v)\n",
		n, query, strat, stats.Messages, stats.Bytes, stats.Wall.Round(time.Millisecond))
	if trace {
		if spans := rs.Trace(); len(spans) > 0 {
			fmt.Printf("trace (%d spans across %d nodes):\n%s", len(spans), telemetry.TraceNodes(spans), telemetry.RenderTree(spans))
		}
	}
	return 0
}

// --- daemon mode -------------------------------------------------------------

type daemonConfig struct {
	listen, join, bootstrap       string
	serve, search                 string
	strat                         piersearch.Strategy
	limit, maxQueries             int
	explain, daemon, stdinPublish bool
	storeKind, dataDir            string
	syncWrites                    bool
	publishes                     publishList

	cache                        bool
	cacheBytes                   int64
	cacheTTL                     time.Duration
	perClientQPS, perClientBurst int

	debugAddr string
	trace     bool
	logger    *telemetry.Logger
}

func runDaemon(ctx context.Context, dc daemonConfig) int {
	logger := dc.logger
	ln, err := wire.Listen(dc.listen)
	if err != nil {
		logger.Error("listen failed", "addr", dc.listen, "err", err)
		return 1
	}

	// The telemetry plane: one registry every subsystem registers into,
	// and — when tracing or the debug listener is on — one span ring the
	// whole process shares.
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if dc.trace || dc.debugAddr != "" {
		tracer = telemetry.NewTracer(ln.Addr().String())
	}

	cfg := dht.Config{Logger: logger.With("sub", "dht"), Tracer: tracer, Metrics: reg}
	id := dht.RandomID()
	switch dc.storeKind {
	case "mem":
	case "disk":
		d, err := store.Open(dc.dataDir, store.Options{
			Sync:    dc.syncWrites,
			Logger:  logger.With("sub", "store"),
			Tracer:  tracer,
			Metrics: reg,
		})
		if err != nil {
			logger.Error("open disk store failed", "dir", dc.dataDir, "err", err)
			return 1
		}
		if id, err = loadNodeID(dc.dataDir); err != nil {
			logger.Error("node id unusable", "dir", dc.dataDir, "err", err)
			d.Close()  //nolint:errcheck // exiting
			ln.Close() //nolint:errcheck // exiting
			return 1
		}
		if rec := d.Recovery(); rec.Values > 0 {
			logger.Info("recovered store", "values", rec.Values, "dir", dc.dataDir)
		}
		cfg.NewStorage = func(dht.NodeInfo) (dht.Storage, error) { return d, nil }
	default:
		logger.Error("unknown -store (want mem or disk)", "store", dc.storeKind)
		return 1
	}
	transport := wire.NewTCPTransport()
	node := dht.NewNode(dht.NodeInfo{ID: id, Addr: ln.Addr().String()}, transport, cfg)
	srv := wire.NewServer(node, ln)
	go srv.Serve()                                //nolint:errcheck // closed below
	stopJanitor := node.StartJanitor(time.Minute) // reclaim TTL'd postings while serving
	stopMaint := node.StartMaintenance()          // bucket refresh + provider republish
	defer func() {
		// Shutdown order: stop serving and calling first, then close the
		// store so nothing writes to it afterwards.
		stopMaint()
		stopJanitor()
		srv.Close()       //nolint:errcheck // shutting down
		transport.Close() //nolint:errcheck // shutting down
		if err := node.Close(); err != nil {
			logger.Error("close store failed", "err", err)
		}
		if js := node.JanitorStats(); js.Reclaimed > 0 {
			logger.Info("janitor totals", "reclaimed", js.Reclaimed, "sweeps", js.Sweeps)
		}
	}()
	logger.Info("node listening", "id", node.Info().ID.Short(), "addr", srv.Addr(), "store", dc.storeKind)

	engine := pier.NewEngine(node, pier.Config{OrderBySelectivity: true})
	piersearch.RegisterSchemas(engine)
	var tier *hotcache.Tier
	if dc.cache {
		tier = hotcache.NewTier(hotcache.Options{
			MaxBytes: dc.cacheBytes,
			TTL:      dc.cacheTTL,
		})
		tier.RegisterMetrics(reg)
		engine.SetHotTier(tier)
		logger.Info("hot-key tier on", "budget_mib", dc.cacheBytes>>20, "ttl", dc.cacheTTL)
	}

	// The debug listener serves the same registry and span ring the
	// SIGUSR1 snapshot reads: /metrics, /traces, /healthz, pprof.
	if dc.debugAddr != "" {
		dln, stopDebug, err := telemetry.ListenDebug(dc.debugAddr, reg, tracer)
		if err != nil {
			logger.Error("debug listener failed", "addr", dc.debugAddr, "err", err)
			return 1
		}
		defer stopDebug()
		logger.Info("debug endpoints on", "addr", dln.Addr().String())
	}

	// SIGUSR1 dumps one structured snapshot without disturbing the node:
	// the full metrics registry (the same text /metrics serves — routing
	// occupancy, maintenance counters, hotcache TierStats, janitor
	// totals) followed by the routing table.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)
	go func() {
		for range usr1 {
			var b strings.Builder
			b.WriteString("=== metrics ===\n")
			reg.WriteText(&b) //nolint:errcheck // strings.Builder cannot fail
			b.WriteString("=== routing ===\n")
			b.WriteString(node.RoutingStats().Format())
			fmt.Fprint(os.Stderr, b.String())
		}
	}()

	searcher := piersearch.NewSearch(engine, piersearch.Tokenizer{})
	pub := piersearch.NewPublisher(engine, piersearch.ModeBoth, piersearch.Tokenizer{})

	// The query service: remote clients search and publish through this
	// node without joining the DHT themselves.
	if dc.serve != "" {
		svcLn, err := wire.Listen(dc.serve)
		if err != nil {
			logger.Error("serve listen failed", "addr", dc.serve, "err", err)
			return 1
		}
		svc := service.NewServer(svcLn, searcher, pub, service.Options{
			MaxQueries:     dc.maxQueries,
			PerClientQPS:   dc.perClientQPS,
			PerClientBurst: dc.perClientBurst,
			Logger:         logger.With("sub", "service"),
			Tracer:         tracer,
			Metrics:        reg,
		})
		go svc.Serve() //nolint:errcheck // closed below
		defer svc.Close()
		logger.Info("query service on", "addr", svc.Addr(), "max_queries", dc.maxQueries)
	}

	// -join and -bootstrap both feed JoinNetwork, which pings each seed
	// (learning its ID from the reply) and then runs an iterative
	// self-lookup to fill the buckets nearest this node. Seeds are given by
	// address alone; any reachable one suffices.
	var seeds []dht.NodeInfo
	if dc.join != "" {
		seeds = append(seeds, dht.NodeInfo{Addr: dc.join})
	}
	for _, a := range strings.Split(dc.bootstrap, ",") {
		if a = strings.TrimSpace(a); a != "" {
			seeds = append(seeds, dht.NodeInfo{Addr: a})
		}
	}
	if len(seeds) > 0 {
		if err := node.JoinNetwork(seeds); err != nil {
			logger.Error("join failed", "err", err)
			return 1
		}
		logger.Info("joined network", "seeds", len(seeds), "contacts", node.TableLen())
	}

	publishOne := func(name string) {
		f := piersearch.File{Name: name, Size: int64(len(name)) * 1000, Host: srv.Addr(), Port: 6346}
		stats, err := pub.PublishFile(f)
		if err != nil {
			logger.Error("publish failed", "file", name, "err", err)
			return
		}
		logger.Info("published", "file", name, "tuples", stats.Tuples, "bytes", stats.Bytes)
	}
	for _, name := range dc.publishes {
		publishOne(name)
	}
	if dc.stdinPublish {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() && ctx.Err() == nil {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				publishOne(line)
			}
		}
	}

	if dc.search != "" {
		q := piersearch.Query{Text: dc.search, Strategy: dc.strat, Limit: dc.limit}
		if dc.explain {
			text, err := searcher.Explain(q)
			if err != nil {
				logger.Error("explain failed", "err", err)
				return 1
			}
			fmt.Printf("plan for %q:\n%s\n", dc.search, text)
			fmt.Printf("routing:\n%s\n", node.RoutingStats().Format())
		}
		// A signal cancels the in-flight wide-area query; results stream
		// as they arrive instead of materializing at the end. This is the
		// same executor the query service runs for remote clients.
		rs, err := searcher.QueryContext(ctx, q)
		if err != nil {
			logger.Error("search failed", "err", err)
			return 1
		}
		defer rs.Close()
		if code := printResults(rs, dc.search, dc.strat, dc.trace, logger); code != 0 {
			return code
		}
	}

	if dc.daemon {
		<-ctx.Done()
		logger.Info("shutting down")
	}
	return 0
}

// nodeIDFile, in the disk store's directory, keeps the daemon's node ID.
const nodeIDFile = "node-id"

// loadNodeID returns the node ID kept in dir, minting and saving one on
// the first start, so a restarted daemon comes back under the ID lookups
// for its recovered keys walk to. The caller holds dir's store lock. A new ID is written
// to a temp file and renamed into place, so a crash leaves no ID file or
// a whole one (store.Open removes a stray *.tmp). A malformed file is an
// error and is never overwritten.
func loadNodeID(dir string) (dht.ID, error) {
	var id dht.ID
	path := filepath.Join(dir, nodeIDFile)
	b, err := os.ReadFile(path)
	if err == nil {
		raw, err := hex.DecodeString(strings.TrimSpace(string(b)))
		if err != nil || len(raw) != dht.IDBytes {
			return id, fmt.Errorf("%s: want %d hex-encoded bytes, have %q", path, dht.IDBytes, b)
		}
		copy(id[:], raw)
		return id, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return id, err
	}
	id = dht.RandomID()
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return id, err
	}
	_, err = f.WriteString(id.String() + "\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	return id, err
}
