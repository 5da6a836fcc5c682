package service_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"piersearch/internal/hotcache"
	"piersearch/internal/piersearch"
	"piersearch/internal/service"
	"piersearch/internal/telemetry"
)

// benchEnv builds one shared daemon deployment for the remote-query
// benchmarks: mild per-RPC latency so the item-fetch phase has a shape,
// enough files that a full drain is visibly longer than the first batch.
func benchEnv(b *testing.B) *service.Client {
	e := newEnvWorkers(b, 6, 24, service.Options{BatchSize: 4}, 2)
	e.transport.Delay = 2 * time.Millisecond
	client := service.Dial(e.daemon.Addr())
	b.Cleanup(func() { client.Close() })
	return client
}

// BenchmarkRemoteQueryTTFR measures time-to-first-result of a streaming
// remote query — the latency a user actually perceives — and reports it
// alongside the full drain time, quantifying what batch-at-the-end
// delivery would cost (ttfr-ns vs drain-ns per op).
func BenchmarkRemoteQueryTTFR(b *testing.B) {
	client := benchEnv(b)
	q := piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin}
	var ttfr, drainTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rs, err := client.Query(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rs.Next(); err != nil {
			b.Fatal(err)
		}
		ttfr += time.Since(start)
		n := 1
		for {
			_, err := rs.Next()
			if errors.Is(err, piersearch.ErrDone) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		drainTime += time.Since(start)
		rs.Close()
		if n != 24 {
			b.Fatalf("%d results, want 24", n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ttfr.Nanoseconds())/float64(b.N), "ttfr-ns/op")
	b.ReportMetric(float64(drainTime.Nanoseconds())/float64(b.N), "drain-ns/op")
}

// BenchmarkRemoteQueryBatch is the non-streaming comparison: the caller
// materializes the full result set before looking at any of it, so the
// perceived latency IS the drain time.
func BenchmarkRemoteQueryBatch(b *testing.B) {
	client := benchEnv(b)
	q := piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := drainErr(client.Query(context.Background(), q))
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 24 {
			b.Fatalf("%d results, want 24", len(out))
		}
	}
}

// hotEnv is a daemon whose engine has the hot tier installed and holds the
// whole answer to hotQuery: after one warming run the query touches no
// network below the service — what is left is the tier probe, the batch
// codec and the mux.
func hotEnv(t testing.TB) (*service.Client, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	e := newEnv(t, 6, 60, service.Options{Metrics: reg})
	e.engines[0].SetHotTier(hotcache.NewTier(hotcache.Options{}))
	client := service.Dial(e.daemon.Addr())
	t.Cleanup(func() { client.Close() })
	if _, err := drainErr(client.Query(context.Background(), hotQuery)); err != nil {
		t.Fatal(err)
	}
	return client, reg
}

var hotQuery = piersearch.Query{Text: "common stream", Strategy: piersearch.StrategyJoin, Limit: 50}

// BenchmarkRemoteQueryHot is a cached 50-result query over loopback, the
// unit of the search_hot workload: allocations for the whole process (both
// ends), and the daemon's frames and socket writes per query — frames are
// not writes, the flusher coalesces them.
func BenchmarkRemoteQueryHot(b *testing.B) {
	client, reg := hotEnv(b)
	frames, writes := reg.Counter("wire.mux.frames_out"), reg.Counter("wire.mux.flushes")
	frames0, writes0 := frames.Value(), writes.Value()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := client.Query(ctx, hotQuery)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := rs.Next(); err != nil {
				if !errors.Is(err, piersearch.ErrDone) {
					b.Fatal(err)
				}
				break
			}
			n++
		}
		if st := rs.Stats(); n != 50 || st.Messages != 0 {
			b.Fatalf("%d results for %d messages, want 50 for 0: the query is not a tier hit", n, st.Messages)
		}
		rs.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(frames.Value()-frames0)/float64(b.N), "frames/op")
	b.ReportMetric(float64(writes.Value()-writes0)/float64(b.N), "writes/op")
}
