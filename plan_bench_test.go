package bench

// Plan-vs-legacy equivalence benchmark: the same 3-keyword query over the
// same latency-bearing topology, once through the legacy monolithic path
// (Engine.ChainJoinConcurrent + manual Item fetch) and once through the
// composable operator plan (Search.QueryContext streaming). The plan path
// must return the same result count and comparable bytes — the benchmark
// reports both so CI artifacts track any drift.

import (
	"context"
	"errors"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
)

// legacyJoinQuery replicates the pre-plan query path against the raw
// engine entrypoints.
func legacyJoinQuery(tb testing.TB, e *pier.Engine, keywords []string) (int, int) {
	tb.Helper()
	keys := make([]pier.Value, len(keywords))
	for i, kw := range keywords {
		keys[i] = pier.String(kw)
	}
	values, op, err := e.ChainJoinConcurrentContext(context.Background(), piersearch.TableInverted, keys, "fileID", 0)
	if err != nil {
		tb.Fatal(err)
	}
	bytes := op.Bytes
	results := 0
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	pier.ForEachCtx(context.Background(), len(values), e.Workers(), func(i int) {
		tuples, ls, err := e.FetchContext(context.Background(), piersearch.TableItem, values[i])
		<-mu
		bytes += ls.Bytes
		if err == nil {
			results += len(tuples)
		}
		mu <- struct{}{}
	})
	return results, bytes
}

// planJoinQuery drives the identical query through the operator plan.
func planJoinQuery(tb testing.TB, s *piersearch.Search, text string) (int, int) {
	tb.Helper()
	rs, err := s.QueryContext(context.Background(), piersearch.Query{Text: text, Strategy: piersearch.StrategyJoin})
	if err != nil {
		tb.Fatal(err)
	}
	defer rs.Close()
	results := 0
	for {
		if _, err := rs.Next(); err != nil {
			if errors.Is(err, piersearch.ErrDone) {
				break
			}
			tb.Fatal(err)
		}
		results++
	}
	return results, rs.Stats().Bytes
}

func BenchmarkPlanVsLegacy(b *testing.B) {
	env := newRTEnv(b, 8, 500*time.Microsecond)
	keywords := []string{"alpha", "beta", "gamma"}

	b.Run("legacy-monolithic", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			n, by := legacyJoinQuery(b, env.engines[3], keywords)
			if n == 0 {
				b.Fatal("no results")
			}
			bytes = by
		}
		b.ReportMetric(float64(bytes), "query-bytes")
	})
	b.Run("operator-plan", func(b *testing.B) {
		s := env.search(3)
		var bytes int
		for i := 0; i < b.N; i++ {
			n, by := planJoinQuery(b, s, "alpha beta gamma")
			if n == 0 {
				b.Fatal("no results")
			}
			bytes = by
		}
		b.ReportMetric(float64(bytes), "query-bytes")
	})
}

// TestPlanVsLegacyEquivalence pins the benchmark's claim as an acceptance
// test: same results, bytes within 5%. Lookups probe one contact at a time
// (Alpha 1): a FindValue lookup stops once Replicate holders have answered,
// but each probe in flight at that moment still ships the key's value set,
// so with α = 3 an Item fetch's bytes depend on goroutine timing and this
// comparison failed about two runs in five.
func TestPlanVsLegacyEquivalence(t *testing.T) {
	env := newRTEnvWith(t, 8, 0, dht.Config{K: 8, Alpha: 1})
	keywords := []string{"alpha", "beta", "gamma"}
	// Warm routing tables, then measure.
	legacyJoinQuery(t, env.engines[3], keywords)
	planJoinQuery(t, env.search(3), "alpha beta gamma")

	legacyN, legacyBytes := legacyJoinQuery(t, env.engines[3], keywords)
	planN, planBytes := planJoinQuery(t, env.search(3), "alpha beta gamma")
	if legacyN != planN {
		t.Fatalf("plan returned %d results, legacy %d", planN, legacyN)
	}
	diff := legacyBytes - planBytes
	if diff < 0 {
		diff = -diff
	}
	if slack := legacyBytes / 20; diff > slack {
		t.Errorf("plan bytes %d vs legacy %d: drift > 5%%", planBytes, legacyBytes)
	}
}
