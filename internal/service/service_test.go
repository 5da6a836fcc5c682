package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
	"piersearch/internal/service"
	"piersearch/internal/wire"
)

// env is a real-TCP deployment: a DHT cluster served over loopback
// sockets, one query-service daemon on the first node, and published
// files. The client side never joins the DHT.
type env struct {
	transport *wire.TCPTransport
	engines   []*pier.Engine
	daemon    *service.Server
}

func newEnv(t testing.TB, nodes, nfiles int, opts service.Options) *env {
	t.Helper()
	return newEnvWorkers(t, nodes, nfiles, opts, 0)
}

// newEnvWorkers is newEnv with the daemon's engine built with
// pier.Config.Workers workers (0: the engine default), which sets how
// many items each of the daemon's fetch batches resolves.
func newEnvWorkers(t testing.TB, nodes, nfiles int, opts service.Options, workers int) *env {
	t.Helper()
	transport := wire.NewTCPTransport()
	t.Cleanup(transport.Close)
	dhtNodes := make([]*dht.Node, nodes)
	engines := make([]*pier.Engine, nodes)
	for i := range dhtNodes {
		ln, err := wire.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dhtNodes[i] = dht.NewNode(dht.NodeInfo{ID: dht.RandomID(), Addr: ln.Addr().String()}, transport, dht.Config{})
		srv := wire.NewServer(dhtNodes[i], ln)
		go srv.Serve() //nolint:errcheck // closed in cleanup
		t.Cleanup(srv.Close)
		cfg := pier.Config{OrderBySelectivity: true}
		if i == 0 {
			cfg.Workers = workers
		}
		engines[i] = pier.NewEngine(dhtNodes[i], cfg)
		piersearch.RegisterSchemas(engines[i])
	}
	for i := 1; i < nodes; i++ {
		if err := dhtNodes[i].JoinNetwork([]dht.NodeInfo{dhtNodes[0].Info()}); err != nil {
			t.Fatal(err)
		}
	}
	pub := piersearch.NewPublisher(engines[1%nodes], piersearch.ModeBoth, piersearch.Tokenizer{})
	for i := 0; i < nfiles; i++ {
		f := piersearch.File{
			Name: fmt.Sprintf("common stream track%02d.mp3", i),
			Size: int64(1000 + i), Host: fmt.Sprintf("10.7.0.%d", i), Port: 6346,
		}
		if _, err := pub.PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}

	// The daemon executes queries on node 0 and accepts remote publishes.
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	daemon := service.NewServer(ln,
		piersearch.NewSearch(engines[0], piersearch.Tokenizer{}),
		piersearch.NewPublisher(engines[0], piersearch.ModeBoth, piersearch.Tokenizer{}),
		opts)
	go daemon.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(daemon.Close)
	return &env{transport: transport, engines: engines, daemon: daemon}
}

func drain(t testing.TB, rs *piersearch.ResultStream) []piersearch.Result {
	t.Helper()
	var out []piersearch.Result
	for {
		r, err := rs.Next()
		if errors.Is(err, piersearch.ErrDone) {
			return out
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		out = append(out, r)
	}
}

func sortResults(rs []piersearch.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].File.Name != rs[j].File.Name {
			return rs[i].File.Name < rs[j].File.Name
		}
		return rs[i].File.Host < rs[j].File.Host
	})
}

// TestClientDaemonEndToEnd: a client that never joined the DHT queries a
// daemon over real TCP with both strategies and gets exactly the results
// an in-process caller gets.
func TestClientDaemonEndToEnd(t *testing.T) {
	e := newEnv(t, 6, 8, service.Options{})
	client := service.Dial(e.daemon.Addr())
	defer client.Close()
	ctx := context.Background()

	local := piersearch.NewSearch(e.engines[2], piersearch.Tokenizer{})
	for _, strat := range []piersearch.Strategy{piersearch.StrategyJoin, piersearch.StrategyCache} {
		rs, err := client.Query(ctx, piersearch.Query{Text: "common stream", Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		remote := drain(t, rs)
		stats := rs.Stats()
		rs.Close()

		want, _, err := local.Query("common stream", strat, 0)
		if err != nil {
			t.Fatal(err)
		}
		sortResults(remote)
		if len(remote) != len(want) {
			t.Fatalf("%v: remote %d results, local %d", strat, len(remote), len(want))
		}
		for i := range want {
			if remote[i] != want[i] {
				t.Errorf("%v result %d: remote %+v, local %+v", strat, i, remote[i], want[i])
			}
		}
		if stats.Messages == 0 || stats.Keywords != 2 {
			t.Errorf("%v: daemon stats not shipped: %+v", strat, stats)
		}
		if stats.Strategy != strat {
			t.Errorf("stats strategy = %v, want %v", stats.Strategy, strat)
		}
	}
}

// TestRemoteStreamingTTFR pins the tentpole behavior: the first result
// batch reaches the client while the daemon is still executing the rest
// of the query, so time-to-first-result beats the full-query wall time.
func TestRemoteStreamingTTFR(t *testing.T) {
	e := newEnvWorkers(t, 6, 24, service.Options{BatchSize: 4}, 2)
	// Wide-area latency on every DHT hop from here on: the item-fetch
	// phase becomes the dominant, batch-by-batch cost.
	e.transport.Delay = 15 * time.Millisecond

	client := service.Dial(e.daemon.Addr())
	defer client.Close()

	start := time.Now()
	rs, err := client.Query(context.Background(), piersearch.Query{
		Text: "common stream", Strategy: piersearch.StrategyJoin,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Next(); err != nil {
		t.Fatalf("first result: %v", err)
	}
	ttfr := time.Since(start)
	rest := drain(t, rs)
	total := time.Since(start)
	if len(rest) != 23 {
		t.Fatalf("%d results after the first, want 23", len(rest))
	}
	if ttfr >= total {
		t.Errorf("TTFR %v did not beat full-query wall time %v: stream is not streaming", ttfr, total)
	}
	t.Logf("TTFR %v vs full drain %v (%d results)", ttfr, total, len(rest)+1)
}

// TestCancelMidStreamNoLeak: canceling an in-flight remote query severs
// the stream promptly, cancels the daemon-side plan (admission slot
// drains), and leaves no goroutines behind on either side.
func TestCancelMidStreamNoLeak(t *testing.T) {
	e := newEnvWorkers(t, 6, 24, service.Options{BatchSize: 2}, 1)
	e.transport.Delay = 10 * time.Millisecond

	client := service.Dial(e.daemon.Addr())
	defer client.Close()

	// Warm the session with the same query shape first: the baseline must
	// include the session's mux loops (read loop and flusher at each end).
	// The DHT connection pool is left out of the count altogether — see
	// queryGoroutines.
	warm, err := client.Query(context.Background(), piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, warm)
	warm.Close()
	base := queryGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	rs, err := client.Query(ctx, piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		cancel()
		t.Fatalf("first result: %v", err)
	}
	cancel()
	for {
		_, err := rs.Next()
		if err == nil {
			continue // results already on the wire may still surface
		}
		if !errors.Is(err, plan.ErrCanceled) {
			t.Errorf("post-cancel Next = %v, want plan.ErrCanceled", err)
		}
		break
	}
	rs.Close()

	// Both the daemon's handler (admission slot) and every goroutine the
	// canceled query spawned must drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.daemon.ActiveQueries() == 0 && queryGoroutines() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("after cancel: %d active queries, %d goroutines outside the DHT pool (baseline %d)\n%s",
		e.daemon.ActiveQueries(), queryGoroutines(), base, buf[:runtime.Stack(buf, true)])
}

// queryGoroutines counts the goroutines that are not a DHT server's
// per-connection handler. The pooled transport keeps up to four
// connections per destination and opens one whenever a call finds the
// others busy, so how many exist after a query depends on how its α
// parallel probes happened to overlap — under -race the canceled query
// regularly opened one the warm-up had not needed (34 goroutines against
// a baseline of 33, the extra one a serveConn). Each such connection
// parks one handler on the serving node by design; what must drain is
// everything else: the mux loops, the stream handler, the plan's workers.
func queryGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if len(g) > 0 && !bytes.Contains(g, []byte("wire.(*Server).serveConn")) {
			n++
		}
	}
	return n
}

// TestAdmissionControl: a daemon at MaxQueries sheds the next query with
// CodeOverloaded instead of queueing it, and admits again once a slot
// frees.
func TestAdmissionControl(t *testing.T) {
	e := newEnv(t, 6, 24, service.Options{MaxQueries: 1, BatchSize: 1})
	client := service.Dial(e.daemon.Addr())
	defer client.Close()
	ctx := context.Background()

	// Query 1 fills the only slot and stalls: the client does not consume,
	// so the daemon blocks on flow control with the slot held.
	rs1, err := client.Query(ctx, piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs1.Next(); err != nil {
		t.Fatalf("query 1 first result: %v", err)
	}
	waitFor(t, func() bool { return e.daemon.ActiveQueries() == 1 })

	_, err = drainErr(client.Query(ctx, piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyCache}))
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodeOverloaded {
		t.Fatalf("second query error = %v, want CodeOverloaded", err)
	}

	// Releasing query 1 frees the slot; the daemon admits again.
	drain(t, rs1)
	rs1.Close()
	waitFor(t, func() bool { return e.daemon.ActiveQueries() == 0 })
	rs3, err := client.Query(ctx, piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyCache})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, rs3); len(got) != 24 {
		t.Errorf("post-release query: %d results, want 24", len(got))
	}
	rs3.Close()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// drainErr consumes a stream until its first error.
func drainErr(rs *piersearch.ResultStream, err error) ([]piersearch.Result, error) {
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	var out []piersearch.Result
	for {
		r, err := rs.Next()
		if errors.Is(err, piersearch.ErrDone) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// TestRemoteExplain: the daemon renders the plan it would run, without
// executing it; a completed remote stream ships the executed profile.
func TestRemoteExplain(t *testing.T) {
	e := newEnv(t, 6, 4, service.Options{})
	client := service.Dial(e.daemon.Addr())
	defer client.Close()
	ctx := context.Background()

	text, err := client.Explain(ctx, piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ChainJoin(Inverted", "Limit(n=10)", "tuples=0"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}

	rs, err := client.Query(ctx, piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rs)
	profile := rs.Explain()
	rs.Close()
	if !strings.Contains(profile, "msgs=") {
		t.Errorf("executed remote profile missing traffic:\n%s", profile)
	}
}

// TestRemotePublish: a client indexes a file through the daemon, and a
// subsequent remote query finds it.
func TestRemotePublish(t *testing.T) {
	e := newEnv(t, 6, 2, service.Options{})
	client := service.Dial(e.daemon.Addr())
	defer client.Close()
	ctx := context.Background()

	f := piersearch.File{Name: "remotely published rarity.mp3", Size: 777, Host: "10.9.9.9", Port: 6346}
	stats, err := client.Publish(ctx, f, piersearch.ModeBoth)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples == 0 || stats.Keywords != 3 {
		t.Errorf("publish stats = %+v", stats)
	}
	got, err := drainErr(client.Query(ctx, piersearch.Query{Text: "remotely rarity", Strategy: piersearch.StrategyJoin}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].File != f {
		t.Fatalf("remote publish not found: %+v", got)
	}
}

func dialTCP(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// TestVersionRefused: a request from another protocol version gets
// CodeVersion, not a guess.
func TestVersionRefused(t *testing.T) {
	e := newEnv(t, 4, 0, service.Options{})
	conn, err := dialTCP(e.daemon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	m := wire.NewClientMux(conn)
	defer m.Close()

	// A version-3 OpenQuery carried a workers uvarint after the limit: the
	// client's bound on the daemon's fetch pool, which version 4 dropped.
	v3 := codec.AppendString([]byte{service.MsgOpenQuery, 3}, "x")
	v3 = append(v3, byte(piersearch.StrategyJoin))
	v3 = codec.AppendUvarint(v3, 0)    // limit
	v3 = codec.AppendUvarint(v3, 1000) // workers
	v3 = append(v3, 0)                 // untraced
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"version 99", service.EncodeOpenQuery(service.OpenQuery{Version: 99, Text: "x"})},
		// A future version whose body layout this one cannot even parse
		// must still get CodeVersion — the version byte's offset is the
		// invariant.
		{"future layout", append(service.EncodeOpenQuery(service.OpenQuery{Version: service.Version + 1, Text: "x"}), 0xAA, 0xBB)},
		{"version 3 with workers", v3},
	} {
		st, err := m.Open(c.frame, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := st.Recv(context.Background())
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		msg, err := service.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if se, ok := msg.(*service.Error); !ok || se.Code != service.CodeVersion {
			t.Errorf("%s: answer = %#v, want CodeVersion error", c.name, msg)
		}
	}
}

// TestPerClientRateLimit: a client past its token bucket is refused with
// CodeOverloaded and a positive retry-after hint, and is admitted again
// once the bucket refills.
func TestPerClientRateLimit(t *testing.T) {
	e := newEnv(t, 4, 4, service.Options{PerClientQPS: 5, PerClientBurst: 2})
	client := service.Dial(e.daemon.Addr())
	defer client.Close()
	ctx := context.Background()

	q := piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyCache}
	// The burst admits two back-to-back queries.
	for i := 0; i < 2; i++ {
		if _, err := drainErr(client.Query(ctx, q)); err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
	}
	// The third, issued immediately, must be shed with a backoff hint.
	var se *service.Error
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := drainErr(client.Query(ctx, q))
		if errors.As(err, &se) && se.Code == service.CodeOverloaded {
			break
		}
		if err != nil {
			t.Fatalf("rate-limited query: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("client was never rate-limited")
		}
	}
	if se.RetryAfterMs <= 0 {
		t.Errorf("overloaded error carries no retry-after hint: %+v", se)
	}

	// Waiting out the hint (bounded) refills the bucket.
	wait := time.Duration(se.RetryAfterMs) * time.Millisecond
	if wait > time.Second {
		wait = time.Second
	}
	time.Sleep(wait + 50*time.Millisecond)
	if _, err := drainErr(client.Query(ctx, q)); err != nil {
		t.Fatalf("post-refill query: %v", err)
	}
}

// TestBadQueryRefused: an unanswerable query (no indexable keywords)
// comes back as CodeBadRequest through the stream.
func TestBadQueryRefused(t *testing.T) {
	e := newEnv(t, 4, 0, service.Options{})
	client := service.Dial(e.daemon.Addr())
	defer client.Close()
	_, err := drainErr(client.Query(context.Background(), piersearch.Query{Text: "...", Strategy: piersearch.StrategyJoin}))
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodeBadRequest {
		t.Fatalf("empty-keyword query error = %v, want CodeBadRequest", err)
	}
}

// TestCachedQueryLeavesInFewWrites: a query the tier answers whole costs the
// daemon no DHT message, and the frames of its answer — credit, five
// batches, Done, close, reset — reach the socket in fewer writes than
// frames.
func TestCachedQueryLeavesInFewWrites(t *testing.T) {
	client, reg := hotEnv(t)
	frames, writes := reg.Counter("wire.mux.frames_out"), reg.Counter("wire.mux.flushes")
	frames0, writes0 := frames.Value(), writes.Value()
	const queries = 20
	for i := 0; i < queries; i++ {
		rs, err := client.Query(context.Background(), hotQuery)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, rs)
		st := rs.Stats()
		rs.Close()
		// One hit for the join's result, one per Item.
		if len(got) != 50 || st.Messages != 0 || st.CacheHits != 51 {
			t.Fatalf("query %d: %d results, %d messages, %d cache hits; want 50, 0, 51", i, len(got), st.Messages, st.CacheHits)
		}
	}
	// The daemon's last frames (its stream reset) may still be queued.
	waitFor(t, func() bool { return frames.Value()-frames0 >= queries*8 })
	f, w := frames.Value()-frames0, writes.Value()-writes0
	if w >= f {
		t.Errorf("%d frames left the daemon in %d writes: nothing was coalesced", f, w)
	}
	t.Logf("%.1f frames and %.1f writes per cached query", float64(f)/queries, float64(w)/queries)
}
