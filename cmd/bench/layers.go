package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/dht/routing"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
	"piersearch/internal/service"
	"piersearch/internal/store"
	"piersearch/internal/telemetry"
	"piersearch/internal/wire"
)

// This file is the traced run: the workload repeated with the telemetry
// registry attached to every layer and the benchmark's own spans recorded,
// then the sampled ops re-issued one boundary further in each time, then
// unit-cost passes over each layer's exported functions. Every layer is
// timed from outside, around calls the benchmark makes; nothing here adds
// instrumentation to the program.

// sampleOps is how many of the run's ops the boundary passes re-issue, and
// how many calls the dht and pier unit passes make.
const sampleOps = 200

// perCall runs fn n times on this goroutine and returns the mean time and
// heap allocations of one call.
func perCall(n int, fn func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}

// each runs fn n times and returns the sorted per-call times in µs.
func each(n int, fn func(i int)) []float64 {
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		fn(i)
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	sort.Float64s(us)
	return us
}

// regCounts is what the traced run reads from the registry, each counter
// through the registry's accessor by its name.
type regCounts struct {
	framesOut, queries, shed float64
	rpcOut, rpcFailed        float64 // dht RPCs all nodes sent, every kind; those of them that failed
	walRecords, walCommits   float64
	compactRuns              float64
}

func readRegistry(reg *telemetry.Registry) regCounts {
	v := func(c *telemetry.Counter) float64 { return float64(c.Value()) }
	return regCounts{
		framesOut: v(reg.Counter("wire.mux.frames_out")),
		queries:   v(reg.Counter("service.queries")),
		shed:      v(reg.Counter("service.shed.global")) + v(reg.Counter("service.shed.per_client")),
		rpcOut: v(reg.Counter("dht.rpc.out.ping")) + v(reg.Counter("dht.rpc.out.find_node")) +
			v(reg.Counter("dht.rpc.out.find_value")) + v(reg.Counter("dht.rpc.out.store")) +
			v(reg.Counter("dht.rpc.out.app")) + v(reg.Counter("dht.rpc.out.provide")),
		rpcFailed:   v(reg.Counter("dht.rpc.out.failed")),
		walRecords:  v(reg.Counter("store.wal.records")),
		walCommits:  v(reg.Counter("store.wal.commits")),
		compactRuns: v(reg.Counter("store.compact.runs")),
	}
}

// since returns the counters' growth since earlier; compactRuns stays c's.
func (c regCounts) since(earlier regCounts) regCounts {
	c.framesOut -= earlier.framesOut
	c.queries -= earlier.queries
	c.shed -= earlier.shed
	c.rpcOut -= earlier.rpcOut
	c.rpcFailed -= earlier.rpcFailed
	c.walRecords -= earlier.walRecords
	c.walCommits -= earlier.walCommits
	return c
}

// tierTotals sums the hot tiers' counters over every node.
type tierTotals struct {
	hits, misses, routeHits, routeMisses  float64
	evictions, expirations, invalidations float64
	coalesced, fanout, bytes              float64
}

// since returns the counters' growth since earlier; bytes stays t's.
func (t tierTotals) since(earlier tierTotals) tierTotals {
	t.hits -= earlier.hits
	t.misses -= earlier.misses
	t.routeHits -= earlier.routeHits
	t.routeMisses -= earlier.routeMisses
	t.invalidations -= earlier.invalidations
	t.coalesced -= earlier.coalesced
	t.fanout -= earlier.fanout
	return t
}

func (c *cluster) tierTotals() tierTotals {
	var t tierTotals
	for _, m := range c.members {
		s := m.tier.Stats()
		t.hits += float64(s.Data.Hits)
		t.misses += float64(s.Data.Misses)
		t.routeHits += float64(s.Routes.Hits)
		t.routeMisses += float64(s.Routes.Misses)
		t.evictions += float64(s.Data.Evictions)
		t.expirations += float64(s.Data.Expirations)
		t.invalidations += float64(s.Data.Invalidations)
		t.coalesced += float64(s.Coalesced)
		t.fanout += float64(s.FanoutReads)
		t.bytes += float64(s.Data.Bytes + s.Routes.Bytes)
	}
	return t
}

// crossedTTL fails a run in which a tier expired an entry: it outlived the
// TTL, hits turned into misses for a reason no workload names, and none of
// its numbers means what it says.
func crossedTTL(t tierTotals, res *result) {
	if t.expirations == 0 {
		return
	}
	res.Failed++
	if res.FirstFailure == "" {
		res.FirstFailure = fmt.Sprintf("hotcache.data_expirations = %v: the run crossed the %v TTL", t.expirations, tierTTL)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// socketFDs counts the process's open descriptors and how many of them are
// sockets.
func socketFDs() (fds, sockets int) {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			sockets++
		}
	}
	return len(entries), sockets
}

// runTraced runs w for the per-layer metrics. Half the run length goes to
// an untraced pass and half to the traced one on a second cluster, so the
// two throughputs that make telemetry.overhead_pct come from one process.
func runTraced(ctx context.Context, w workload, opt options) (*result, error) {
	in, err := newInputs(w, opt)
	if err != nil {
		return nil, err
	}
	window := time.Duration(opt.seconds) * time.Second / 2

	plain, err := setUp(ctx, w, opt, in, nil)
	if err != nil {
		return nil, err
	}
	untraced, err := runPhase(ctx, plain.cl.svc.Addr(), in.corp, in.measured, window, 0, nil)
	plain.cl.close()
	if err != nil {
		return nil, err
	}

	reg := telemetry.NewRegistry()
	rec := newRecorder()
	e, err := setUp(ctx, w, opt, in, reg)
	if err != nil {
		return nil, err
	}
	defer e.cl.close()
	res := &result{Workload: w.name, Header: e.header(w, opt), Metrics: map[string]metric{}}
	t := &traced{env: e, w: w, res: res, rec: rec, quick: opt.sz.quick}

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	tiers0, reg0 := e.cl.tierTotals(), readRegistry(reg)
	p, err := runPhase(ctx, e.cl.svc.Addr(), in.corp, in.measured, window, 0, rec)
	if err != nil {
		return nil, err
	}
	tiers1, reg1 := e.cl.tierTotals(), readRegistry(reg)
	runtime.ReadMemStats(&gc1)
	res.Attempted, res.Failed, res.FirstFailure = p.attempted+untraced.attempted, p.failed+untraced.failed, p.firstFailure
	res.Stale = p.stale + untraced.stale
	if res.FirstFailure == "" {
		res.FirstFailure = untraced.firstFailure
	}
	if p.ops() == 0 || untraced.ops() == 0 {
		res.Correct = false
		return res, nil
	}
	ops := float64(p.ops())
	counts := reg1.since(reg0)

	// plan, service: the client's latencies split by plan and by op kind.
	res.set("plan.join_p50_ms", quantile(p.joinMs, 0.5), "ms", len(p.joinMs))
	res.set("plan.cache_p50_ms", quantile(p.cacheMs, 0.5), "ms", len(p.cacheMs))
	res.set("service.query_p50_ms", quantile(p.queryMs, 0.5), "ms", len(p.queryMs))
	res.set("service.query_p99_ms", quantile(p.queryMs, 0.99), "ms", len(p.queryMs))
	res.set("service.ttfr_p95_ms", quantile(p.ttfrMs, 0.95), "ms", len(p.ttfrMs))
	res.set("service.publish_p50_ms", quantile(p.publishMs, 0.5), "ms", len(p.publishMs))
	res.set("service.publish_p99_ms", quantile(p.publishMs, 0.99), "ms", len(p.publishMs))
	res.set("service.frames_per_query", ratio(counts.framesOut, counts.queries), "count", p.queries)
	res.set("service.shed", counts.shed, "count", p.attempted)
	res.set("service.results_per_query", ratio(float64(p.results), float64(p.queries)), "count", p.queries)

	// hotcache: the tiers' own counters over the measured phase, all nodes.
	grown := tiers1.since(tiers0)
	res.set("hotcache.data_hit_ratio", ratio(grown.hits, grown.hits+grown.misses), "ratio", p.ops())
	res.set("hotcache.route_hit_ratio", ratio(grown.routeHits, grown.routeHits+grown.routeMisses), "ratio", p.ops())
	res.set("hotcache.coalesced_per_op", grown.coalesced/ops, "count", p.ops())
	res.set("hotcache.fanout_reads_per_op", grown.fanout/ops, "count", p.ops())
	res.set("hotcache.invalidations_per_publish", ratio(grown.invalidations, float64(p.publishes)), "count", p.publishes)
	res.set("hotcache.data_evictions", tiers1.evictions, "count", 1)
	res.set("hotcache.data_expirations", tiers1.expirations, "count", 1)
	res.set("hotcache.bytes_mb", tiers1.bytes/(1<<20), "MiB", 1)
	res.set("hotcache.stale_answers_per_kop", 1000*float64(p.stale)/ops, "count", p.ops())
	res.set("hotcache.plan_hits_per_query", ratio(float64(p.cacheHits), float64(p.queries)), "count", p.queries)
	crossedTTL(tiers1, res)

	// dht, from the registry: RPCs sent by all nodes per client op.
	res.set("dht.rpc_out_per_op", counts.rpcOut/ops, "count", p.ops())
	res.set("dht.rpc_failed_ratio", ratio(counts.rpcFailed, counts.rpcOut), "ratio", int(counts.rpcOut))
	res.set("pier.postings_shipped_per_op", ratio(float64(p.shipped), float64(p.queries)), "count", p.queries)

	// store, from the registry and the disks' own accounting.
	res.set("store.wal_records_per_commit", ratio(counts.walRecords, counts.walCommits), "count", int(counts.walCommits))
	res.set("store.compact_runs", counts.compactRuns, "count", 1)
	var diskBytes, liveBytes float64
	contacts := 0
	for _, m := range e.cl.members {
		contacts += m.node.TableLen()
		if m.disk != nil {
			diskBytes += float64(m.disk.DiskSize())
			liveBytes += float64(m.disk.Bytes())
		}
	}
	res.set("store.disk_bytes_per_live_byte", ratio(diskBytes, liveBytes), "ratio", len(e.cl.members))
	res.set("routing.table_contacts", float64(contacts)/float64(len(e.cl.members)), "count", len(e.cl.members))

	// proc, telemetry.
	fds, sockets := socketFDs()
	res.set("proc.goroutines", float64(runtime.NumGoroutine()), "count", 1)
	res.set("proc.open_fds", float64(fds), "count", 1)
	// Both ends of every loopback connection are this process's; the
	// listeners are one socket per node plus the service's.
	res.set("wire.conns_open", float64((sockets-len(e.cl.members)-1)/2), "count", 1)
	res.set("proc.heap_mb", float64(gc1.HeapAlloc)/(1<<20), "MiB", 1)
	res.set("proc.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count", 1)
	res.set("proc.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, "ms", int(gc1.NumGC-gc0.NumGC))
	plainRate, tracedRate := float64(untraced.ops())/untraced.elapsed.Seconds(), ops/p.elapsed.Seconds()
	res.set("telemetry.traced_ops_per_s", tracedRate, "ops/s", p.ops())
	res.set("telemetry.overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%", p.ops())

	t.boundaries(ctx, p)
	t.unitDHT(ctx)
	t.unitPier(ctx)
	if err := t.unitWire(ctx); err != nil {
		return nil, err
	}
	if err := t.unitStore(opt.scratch); err != nil {
		return nil, err
	}
	t.unitCodecRouting()
	t.storeShare(p)

	path := opt.spans
	if path == "" {
		path = filepath.Join(opt.scratch, "spans-"+w.name+".json")
	}
	if err := rec.write(path); err != nil {
		return nil, err
	}
	res.set("telemetry.spans", float64(len(rec.spans)), "count", 1)
	res.Correct = res.Failed == 0
	return res, ctx.Err()
}

// traced is the state the passes after the traced phase share.
type traced struct {
	*env
	w     workload
	res   *result
	rec   *recorder
	quick bool
}

// calls scales a unit pass's call count down for the smoke test.
func (t *traced) calls(n int) int {
	if t.quick {
		return max(n/20, 10)
	}
	return n
}

// fail counts one failed call of a pass.
func (t *traced) fail(what string, err error) {
	t.res.Attempted++
	t.res.Failed++
	if t.res.FirstFailure == "" {
		t.res.FirstFailure = what + ": " + err.Error()
	}
}

// boundaries re-issues a sample of the phase's ops at three depths — the
// service client, piersearch in-process on node 0, and pier's operators —
// each pass from the same cache preparation: fresh tiers, and for the hot
// workloads one untimed pass so the sample's texts are cached as they were
// when the client sent them. A layer's self time is its span minus the
// spans one level down; service.self_p50_us is the median of that for the
// service layer.
func (t *traced) boundaries(ctx context.Context, p *phase) {
	done := p.attempted
	if done > len(t.measured) {
		done = len(t.measured)
	}
	step := (done/t.calls(sampleOps) + 1) | 1 // odd, so no op kind on an even cycle is skipped
	var sample []int
	for i := 0; i < done; i += step {
		sample = append(sample, i)
	}
	search, pub, engine := t.cl.search, t.cl.pub, t.cl.members[0].engine
	client := service.Dial(t.cl.svc.Addr())
	defer client.Close()

	inproc := func(o *op) error {
		_, _, _, err := drain(search.QueryContext(ctx, o.request()))
		return err
	}
	// variant returns o's file as another host shares it: every pass must
	// publish files the earlier passes did not.
	variant := func(o *op, pass string) piersearch.File {
		f := o.file
		f.Host = pass + "." + f.Host
		return f
	}
	prepare := func() {
		t.cl.freshTiers()
		if !t.w.hot {
			return
		}
		for _, i := range sample {
			if o := &t.measured[i]; !o.isPublish() {
				inproc(o) //nolint:errcheck // untimed; the timed pass reports
			}
		}
	}

	// svcUs[k] and innerUs[k] time sample[k] at the two outer depths; the
	// service layer's self time is their difference op by op, which the
	// spread of op costs (1 to 20 ms on search_cold) does not reach.
	svcUs, innerUs := map[int]float64{}, map[int]float64{}
	var queryUs, publishMs []float64
	prepare()
	for _, i := range sample {
		o := &t.measured[i]
		start := time.Now()
		var err error
		if o.isPublish() {
			_, err = client.Publish(ctx, variant(o, "svc"), piersearch.ModeBoth)
		} else {
			_, _, _, err = drain(client.Query(ctx, o.request()))
		}
		end := time.Now()
		if err != nil {
			t.fail("service pass", err)
			continue
		}
		t.rec.span("service.op", i, "", start, end)
		svcUs[i] = float64(end.Sub(start).Nanoseconds()) / 1e3
	}

	prepare()
	for _, i := range sample {
		o := &t.measured[i]
		start := time.Now()
		var err error
		if o.isPublish() {
			_, err = pub.PublishFile(variant(o, "inproc"))
		} else {
			err = inproc(o)
		}
		end := time.Now()
		if err != nil {
			t.fail("piersearch pass", err)
			continue
		}
		us := float64(end.Sub(start).Nanoseconds()) / 1e3
		innerUs[i] = us
		if o.isPublish() {
			t.rec.span("piersearch.publish", i, "service.op", start, end)
			publishMs = append(publishMs, us/1e3)
		} else {
			t.rec.span("piersearch.query", i, "service.op", start, end)
			queryUs = append(queryUs, us)
		}
	}

	prepare()
	for _, i := range sample {
		o := &t.measured[i]
		start := time.Now()
		if o.isPublish() {
			f := variant(o, "pier")
			_, err := engine.PublishBatchContext(ctx, piersearch.IndexTuples(f, o.tokens, piersearch.ModeBoth), 0)
			if err != nil {
				t.fail("pier pass", err)
				continue
			}
			t.rec.span("pier.publish_batch", i, "piersearch.publish", start, time.Now())
			continue
		}
		ids, _, err := t.match(ctx, engine, o)
		matched := time.Now()
		if err != nil {
			t.fail("pier pass", err)
			continue
		}
		t.rec.span("pier.match", i, "piersearch.query", start, matched)
		pier.ForEachCtx(ctx, len(ids), engine.Workers(), func(j int) {
			engine.FetchCachedContext(ctx, piersearch.TableItem, ids[j]) //nolint:errcheck // best-effort, as plan.DHTFetch fetches
		})
		t.rec.span("pier.fetch", i, "piersearch.query", matched, time.Now())
	}

	var selfUs []float64
	for i, us := range svcUs {
		if inner, ok := innerUs[i]; ok {
			selfUs = append(selfUs, us-inner)
		}
	}
	sort.Float64s(selfUs)
	sort.Float64s(queryUs)
	sort.Float64s(publishMs)
	t.res.set("service.self_p50_us", quantile(selfUs, 0.5), "us", len(selfUs))
	t.res.set("piersearch.query_inproc_p50_us", quantile(queryUs, 0.5), "us", len(queryUs))
	t.res.set("piersearch.publish_inproc_p50_ms", quantile(publishMs, 0.5), "ms", len(publishMs))
}

// match runs o's match phase on pier's operators, as the planner shapes
// it, and returns the matched file IDs.
func (t *traced) match(ctx context.Context, engine *pier.Engine, o *op) ([]pier.Value, pier.OpStats, error) {
	if o.strategy == piersearch.StrategyJoin {
		keys := make([]pier.Value, len(o.query.tokens))
		for i, term := range o.query.tokens {
			keys[i] = pier.String(term)
		}
		return engine.ChainJoinConcurrentContext(ctx, piersearch.TableInverted, keys, "fileID", queryLimit)
	}
	tuples, stats, err := engine.CacheSelectContext(ctx, piersearch.TableInvertedCache, pier.String(o.query.tokens[0]), o.query.tokens[1:], "fulltext", queryLimit)
	ids := make([]pier.Value, len(tuples))
	for i, tu := range tuples {
		ids[i] = tu[1]
	}
	return ids, stats, err
}

// unitDHT times the node API on seeded keys from node 0, the node the
// daemon's queries start at.
func (t *traced) unitDHT(ctx context.Context) {
	node := t.cl.members[0].node
	rng := rand.New(rand.NewSource(t.seed))
	keys := make([]dht.ID, t.calls(sampleOps))
	for i := range keys {
		keys[i] = routing.SeededID(rng)
	}
	var lookup, put, get dht.LookupStats
	record := func(total *dht.LookupStats, what string, ls dht.LookupStats, err error) {
		total.Add(ls)
		if err != nil {
			t.fail(what, err)
		}
	}
	n := float64(len(keys))
	us := each(len(keys), func(i int) {
		_, ls, err := node.LookupContext(ctx, keys[i])
		record(&lookup, "dht lookup", ls, err)
	})
	t.res.set("dht.lookup_p50_us", quantile(us, 0.5), "us", len(us))
	t.res.set("dht.lookup_msgs", float64(lookup.Messages)/n, "count", len(us))
	t.res.set("dht.lookup_hops", float64(lookup.Hops)/n, "count", len(us))
	value := bytes.Repeat([]byte{'v'}, 100)
	us = each(len(keys), func(i int) {
		ls, err := node.PutIDContext(ctx, keys[i], value)
		record(&put, "dht put", ls, err)
	})
	t.res.set("dht.put_p50_us", quantile(us, 0.5), "us", len(us))
	t.res.set("dht.put_msgs", float64(put.Messages)/n, "count", len(us))
	us = each(len(keys), func(i int) {
		values, ls, err := node.GetIDContext(ctx, keys[i])
		if err == nil && len(values) != 1 {
			err = fmt.Errorf("%d values under a key put once", len(values))
		}
		record(&get, "dht get", ls, err)
	})
	t.res.set("dht.get_p50_us", quantile(us, 0.5), "us", len(us))
	t.res.set("dht.get_msgs", float64(get.Messages)/n, "count", len(us))
}

// unitPier times pier's operators one at a time on node 0, each from
// fresh tiers so no call answers from a cache an earlier one filled. The
// keys are the corpus's: query texts past the hot set, and their files.
func (t *traced) unitPier(ctx context.Context) {
	engine := t.cl.members[0].engine
	var texts []queryText
	for _, q := range t.corp.queries[min(hotTexts, len(t.corp.queries)):] {
		if len(q.tokens) >= 2 && len(texts) < t.calls(sampleOps) {
			texts = append(texts, q)
		}
	}
	if len(texts) == 0 {
		texts = t.corp.queries
	}
	n := len(texts)
	check := func(what string, err error) {
		if err != nil {
			t.fail(what, err)
		}
	}

	t.cl.freshTiers()
	us := each(n, func(i int) {
		_, _, err := engine.CountContext(ctx, piersearch.TableInverted, pier.String(texts[i].tokens[0]))
		check("pier count", err)
	})
	t.res.set("pier.count_p50_us", quantile(us, 0.5), "us", n)

	t.cl.freshTiers()
	us = each(n, func(i int) {
		id := t.corp.instances[i*len(t.corp.instances)/n].id
		tuples, _, err := engine.FetchContext(ctx, piersearch.TableItem, pier.Bytes(id[:]))
		if err == nil && len(tuples) != 1 {
			err = fmt.Errorf("%d Item tuples under one file ID", len(tuples))
		}
		check("pier fetch", err)
	})
	t.res.set("pier.fetch_p50_us", quantile(us, 0.5), "us", n)

	t.cl.freshTiers()
	us = each(n, func(i int) {
		_, _, err := t.match(ctx, engine, &op{query: texts[i], strategy: piersearch.StrategyCache})
		check("pier cache select", err)
	})
	t.res.set("pier.cacheselect_p50_us", quantile(us, 0.5), "us", n)

	t.cl.freshTiers()
	var join pier.OpStats
	us = each(n, func(i int) {
		_, st, err := t.match(ctx, engine, &op{query: texts[i], strategy: piersearch.StrategyJoin})
		join.Add(st)
		check("pier chain join", err)
	})
	t.res.set("pier.chainjoin_p50_us", quantile(us, 0.5), "us", n)
	t.res.set("pier.chainjoin_msgs", float64(join.Messages)/float64(n), "count", n)
	t.res.set("pier.chainjoin_match_kb", float64(join.Bytes)/1024/float64(n), "KiB", n)

	var publish dht.LookupStats
	us = each(n, func(i int) {
		id := piersearch.File{Name: texts[i].text, Host: "unit.pier", Port: i}.ID()
		ls, err := engine.PublishContext(ctx, piersearch.TableInverted, pier.Tuple{pier.String(texts[i].tokens[0]), pier.Bytes(id[:])})
		publish.Add(ls)
		check("pier publish", err)
	})
	t.res.set("pier.publish_p50_us", quantile(us, 0.5), "us", n)
	t.res.set("pier.publish_msgs", float64(publish.Messages)/float64(n), "count", n)

	planner := plan.Planner{Engine: engine, Catalog: piersearch.Catalog()}
	ns, _ := perCall(20*n, func(i int) {
		_, err := planner.Plan(plan.Query{Terms: texts[i%n].tokens, Strategy: plan.StrategyJoin, Limit: queryLimit})
		check("plan compile", err)
	})
	t.res.set("plan.compile_ns", ns, "ns", 20*n)
	tok := piersearch.Tokenizer{}
	ns, _ = perCall(20*n, func(i int) { tok.Tokenize(t.corp.files[i%len(t.corp.files)].Name) })
	t.res.set("piersearch.tokenize_ns", ns, "ns", 20*n)
}

// unitWire times the transport: a ping between two of the cluster's nodes
// on a warm pooled connection, frames in memory, and a mux session of its
// own over loopback with an echoing peer.
func (t *traced) unitWire(ctx context.Context) error {
	from, to := t.cl.members[0], t.cl.members[1]
	ping := &dht.Request{Kind: dht.RPCPing, From: from.node.Info()}
	call := func(int) {
		if _, err := from.transport.CallContext(ctx, to.node.Info(), ping); err != nil {
			t.fail("wire ping", err)
		}
	}
	call(0)
	n := t.calls(2000)
	ns, allocs := perCall(n, call)
	t.res.set("wire.rpc_rtt_us", ns/1e3, "us", n)
	t.res.set("wire.rpc_allocs", allocs, "count", n)

	payload := bytes.Repeat([]byte{'f'}, 256)
	var buf bytes.Buffer
	ns, _ = perCall(50*n, func(int) {
		buf.Reset()
		wire.WriteFrame(&buf, payload) //nolint:errcheck // bytes.Buffer cannot fail
		wire.ReadFrame(&buf)           //nolint:errcheck // reads back what was just written
	})
	t.res.set("wire.frame_ns", ns, "ns", 50*n)

	// The echoing peer answers each data frame with itself and grants the
	// credit back, as the service's consumers do.
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan *wire.Mux, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- wire.NewServerMux(conn, func(st *wire.Stream, _ []byte) {
			defer st.Close()
			for {
				p, err := st.Recv(ctx)
				if err != nil {
					return
				}
				st.Grant(1)
				if len(p) <= len(payload) && st.Send(ctx, p) != nil {
					return
				}
			}
		})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	client := wire.NewClientMux(conn)
	defer client.Close()
	server, ok := <-accepted
	if !ok {
		return errors.New("wire: echo peer did not accept")
	}
	defer server.Close()
	stalls := telemetry.NewRegistry()
	client.SetMetrics(wire.RegisterMuxMetrics(stalls))

	ns, allocs = perCall(n, func(int) {
		st, err := client.Open(nil, 0)
		if err == nil {
			if err = st.Send(ctx, payload); err == nil {
				_, err = st.Recv(ctx)
			}
			st.Close()
		}
		if err != nil {
			t.fail("wire mux echo", err)
		}
	})
	t.res.set("wire.mux_stream_rtt_us", ns/1e3, "us", n)
	t.res.set("wire.mux_stream_allocs", allocs, "count", n)

	// Bulk: frames too large to be echoed, sent as fast as the default
	// window's credits come back.
	const frameBytes = 32 << 10
	frames := n
	bulk := bytes.Repeat([]byte{'b'}, frameBytes)
	st, err := client.Open(nil, 0)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < frames && err == nil; i++ {
		err = st.Send(ctx, bulk)
	}
	elapsed := time.Since(start)
	st.Close()
	if err != nil {
		t.fail("wire mux bulk", err)
	}
	t.res.set("wire.mux_mb_per_s", float64(frames*frameBytes)/(1<<20)/elapsed.Seconds(), "MiB/s", frames)
	t.res.set("wire.mux_credit_stalls", float64(stalls.Counter("wire.mux.credit_stalls").Value()), "count", frames)
	return nil
}

// unitStore times the two storage engines alone, on the corpus's own keys
// and values, one writer: what one put or get costs a node.
func (t *traced) unitStore(scratch string) error {
	values := t.perNode[0]
	if n := t.calls(20000); len(values) > n {
		values = values[:n]
	}
	n := len(values)
	measure := func(s dht.Storage) (putNs, getNs float64) {
		putNs, _ = perCall(n, func(i int) {
			s.Put(values[i].key, dht.StoredValue{Data: values[i].data, Publisher: values[i].publisher})
		})
		// A get returns the key's whole posting list, the head terms'
		// thousands of values: a tenth as many calls take as long.
		getNs, _ = perCall(n/10, func(i int) { s.Get(values[10*i].key, 0) })
		return putNs, getNs
	}
	putNs, getNs := measure(store.NewMem())
	t.res.set("store.mem_put_ns", putNs, "ns", n)
	t.res.set("store.mem_get_us", getNs/1e3, "us", n/10)

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "unit-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	putNs, getNs = measure(disk)
	if err := disk.Close(); err != nil {
		return err
	}
	t.res.set("store.disk_put_us", putNs/1e3, "us", n)
	t.res.set("store.disk_get_us", getNs/1e3, "us", n/10)
	return nil
}

// storeShare states the store's share of a publish: the puts one file
// costs (its tuples on Replicate nodes) at the unit cost of a put in the
// workload's store, against the client's publish latency. 0 on a workload
// that publishes nothing.
func (t *traced) storeShare(p *phase) {
	putUs := t.res.Metrics["store.mem_put_ns"].Value / 1e3
	if t.cl.cfg.disk {
		putUs = t.res.Metrics["store.disk_put_us"].Value
	}
	share := 0.0
	if len(p.published) > 0 {
		tuples := 0
		for _, inst := range p.published {
			tuples += 1 + 2*len(inst.tokens)
		}
		puts := float64(tuples) / float64(len(p.published)) * float64(t.cl.members[0].node.Config().Replicate)
		share = 100 * puts * putUs / (quantile(p.publishMs, 0.5) * 1e3)
	}
	t.res.set("store.share_of_publish_pct", share, "%", len(p.published))
}

// unitCodecRouting times the codecs on the corpus's tuples and posting
// lists and on a k-contact reply, and the routing table on the cluster's
// node IDs.
func (t *traced) unitCodecRouting() {
	values := t.perNode[0]
	if n := t.calls(5000); len(values) > n {
		values = values[:n]
	}
	n := len(values)
	tuples := make([]pier.Tuple, n)
	ns, allocs := perCall(n, func(i int) { tuples[i], _, _ = pier.DecodeTuple(values[i].data) })
	t.res.set("codec.tuple_decode_ns", ns, "ns", n)
	t.res.set("codec.tuple_decode_allocs", allocs, "count", n)
	var scratch []byte
	ns, _ = perCall(n, func(i int) { scratch = tuples[i].Encode(scratch[:0]) })
	t.res.set("codec.tuple_encode_ns", ns, "ns", n)

	// Posting lists at the corpus's median and 95th-percentile length, as
	// the chain join ships them: sets of file IDs.
	var lengths []int
	for _, list := range t.corp.byToken {
		lengths = append(lengths, len(list))
	}
	sort.Ints(lengths)
	ids := 0
	var sets [][]pier.Value
	for _, q := range []float64{0.5, 0.95} {
		length := lengths[int(q*float64(len(lengths)-1))]
		set := make([]pier.Value, length)
		for i := range set {
			set[i] = pier.Bytes(t.corp.instances[i].id[:])
		}
		sets = append(sets, set)
		ids += length
	}
	encoded := make([][]byte, len(sets))
	rounds := t.calls(200)
	ns, _ = perCall(rounds, func(int) {
		for i, set := range sets {
			encoded[i] = pier.EncodeValueSet(encoded[i][:0], set)
		}
	})
	t.res.set("codec.valueset_encode_ns", ns/float64(ids), "ns", rounds*ids)
	ns, _ = perCall(rounds, func(int) {
		for _, data := range encoded {
			pier.DecodeValueSet(data) //nolint:errcheck // decodes what was just encoded
		}
	})
	t.res.set("codec.valueset_decode_ns", ns/float64(ids), "ns", rounds*ids)
	t.res.set("codec.valueset_bytes_per_id", float64(len(encoded[0])+len(encoded[1]))/float64(ids), "B", ids)

	// A FindNode request and its reply of up to k contacts.
	infos := make([]dht.NodeInfo, 0, 20)
	for _, m := range t.cl.members {
		if len(infos) < cap(infos) {
			infos = append(infos, m.node.Info())
		}
	}
	req := &dht.Request{Kind: dht.RPCFindNode, From: infos[0], Target: t.ids[0]}
	reply := wire.EncodeResponse(&dht.Response{From: infos[0], Closest: infos, OK: true})
	many := t.calls(50000)
	ns, _ = perCall(many, func(int) { wire.EncodeRequest(req) })
	t.res.set("codec.rpc_encode_ns", ns, "ns", many)
	ns, allocs = perCall(many, func(int) { wire.DecodeResponse(reply) }) //nolint:errcheck // decodes what was just encoded
	t.res.set("codec.rpc_decode_ns", ns, "ns", many)
	t.res.set("codec.rpc_decode_allocs", allocs, "count", many)

	table := routing.NewTable(t.ids[0], dht.Config{}.Normalize().K)
	for i, id := range t.ids[1:] {
		table.Update(routing.NodeInfo{ID: id, Addr: "node-" + strconv.Itoa(i)})
	}
	peers := table.Contacts()
	ns, _ = perCall(many, func(i int) { table.Closest(t.ids[i%len(t.ids)], table.K()) })
	t.res.set("routing.closest_ns", ns, "ns", many)
	ns, _ = perCall(many, func(i int) { table.Update(peers[i%len(peers)]) })
	t.res.set("routing.update_ns", ns, "ns", many)
}
