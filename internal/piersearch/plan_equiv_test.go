package piersearch

// Equivalence acceptance tests: for every trace query, the plan-based
// path must return the same result set (same fileIDs, any order) as the
// legacy monolithic entrypoints (ChainJoinConcurrent / CacheSelect +
// manual Item fetch), with byte counts within 5%.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/trace"
)

// legacyRun replicates the pre-plan Search.run code path: the monolithic
// engine entrypoint for the strategy, then a manual worker-pool Item
// fetch. It is the reference the operator plan is measured against.
func legacyRun(e *env, at int, keywords []string, strat Strategy, limit int) (map[string]bool, int, error) {
	engine := e.engines[at]
	bytes := 0
	var fileIDs []pier.Value
	switch strat {
	case StrategyJoin:
		keys := make([]pier.Value, len(keywords))
		for i, kw := range keywords {
			keys[i] = pier.String(kw)
		}
		values, op, err := engine.ChainJoinConcurrentContext(context.Background(), TableInverted, keys, "fileID", limit)
		bytes += op.Bytes
		if err != nil {
			return nil, bytes, err
		}
		fileIDs = values
	case StrategyCache:
		tuples, op, err := engine.CacheSelectContext(context.Background(), TableInvertedCache, pier.String(keywords[0]), keywords[1:], "fulltext", limit)
		bytes += op.Bytes
		if err != nil {
			return nil, bytes, err
		}
		seen := map[string]bool{}
		for _, t := range tuples {
			if k := t[1].Key(); !seen[k] {
				seen[k] = true
				fileIDs = append(fileIDs, t[1])
			}
		}
	}
	if limit > 0 && len(fileIDs) > limit {
		fileIDs = fileIDs[:limit]
	}
	ids := map[string]bool{}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	pier.ForEachCtx(context.Background(), len(fileIDs), engine.Workers(), func(i int) {
		tuples, ls, err := engine.FetchContext(context.Background(), TableItem, fileIDs[i])
		<-mu
		bytes += ls.Bytes
		if err == nil {
			for _, t := range tuples {
				if _, id, err := FileFromItemTuple(t); err == nil {
					ids[id.String()] = true
				}
			}
		}
		mu <- struct{}{}
	})
	return ids, bytes, nil
}

// planRun drives the same query through QueryContext's operator plan.
func planRun(e *env, at int, text string, strat Strategy, limit int) (map[string]bool, int, error) {
	rs, err := e.search(at).QueryContext(context.Background(), Query{Text: text, Strategy: strat, Limit: limit})
	if err != nil {
		return nil, 0, err
	}
	defer rs.Close()
	ids := map[string]bool{}
	for {
		r, err := rs.Next()
		if errors.Is(err, ErrDone) {
			break
		}
		if err != nil {
			return ids, rs.Stats().Bytes, err
		}
		ids[r.FileID.String()] = true
	}
	return ids, rs.Stats().Bytes, nil
}

func sameIDs(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// within5pct allows a small absolute slack for near-empty queries, where
// a single extra routing hop dwarfs any percentage.
func within5pct(legacy, planned int) bool {
	diff := legacy - planned
	if diff < 0 {
		diff = -diff
	}
	slack := legacy / 20
	if slack < 512 {
		slack = 512
	}
	return diff <= slack
}

func TestPlanMatchesLegacyOnTraceQueries(t *testing.T) {
	tr := trace.Generate(trace.Config{
		DistinctFiles: 150, TargetCopies: 260, Hosts: 80,
		Vocabulary: 60, Queries: 20, Seed: 9,
	})
	// Sequential probes: with α = 3 the plan and legacy paths return the
	// same fileIDs but their Item fetches' bytes depend on how many
	// FindValue probes were in flight when the stop rule fired (see
	// newSequentialEnv), and a varying set of pairs — mostly
	// inverted-cache, which fetches the most Items — missed the 5% bound
	// on every run from PR 8 on.
	e := newSequentialEnv(t, 24)
	for rank, f := range tr.Files {
		file := File{
			Name: f.Name, Size: int64(1_000_000 + rank),
			Host: fmt.Sprintf("10.9.%d.%d", rank/200, rank%200), Port: 6346,
		}
		if _, err := e.publisher(rank % len(e.engines)).PublishFile(file); err != nil {
			t.Fatal(err)
		}
	}

	tk := Tokenizer{}
	checked := 0
	for qi, q := range tr.Queries {
		keywords := tk.Tokenize(q.Text)
		if len(keywords) == 0 {
			continue
		}
		for _, strat := range []Strategy{StrategyJoin, StrategyCache} {
			// Warm both paths once so routing tables settle identically,
			// then measure.
			if _, _, err := legacyRun(e, 5, keywords, strat, 0); err != nil {
				t.Fatalf("query %d warmup legacy %v: %v", qi, strat, err)
			}
			if _, _, err := planRun(e, 5, q.Text, strat, 0); err != nil {
				t.Fatalf("query %d warmup plan %v: %v", qi, strat, err)
			}

			legacyIDs, legacyBytes, err := legacyRun(e, 5, keywords, strat, 0)
			if err != nil {
				t.Fatalf("query %d legacy %v: %v", qi, strat, err)
			}
			planIDs, planBytes, err := planRun(e, 5, q.Text, strat, 0)
			if err != nil {
				t.Fatalf("query %d plan %v: %v", qi, strat, err)
			}
			if !sameIDs(legacyIDs, planIDs) {
				t.Errorf("query %d (%q) %v: plan returned %d fileIDs, legacy %d",
					qi, q.Text, strat, len(planIDs), len(legacyIDs))
			}
			if !within5pct(legacyBytes, planBytes) {
				t.Errorf("query %d (%q) %v: plan bytes %d vs legacy %d (>5%%)",
					qi, q.Text, strat, planBytes, legacyBytes)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d query/strategy pairs checked; trace too sparse", checked)
	}
}

func TestPlanMatchesLegacyWithLimit(t *testing.T) {
	e := newEnv(t, 24)
	for i := 0; i < 12; i++ {
		f := File{Name: fmt.Sprintf("shared keyword track%02d.mp3", i), Size: 1000,
			Host: fmt.Sprintf("10.8.0.%d", i), Port: 6346}
		if _, err := e.publisher(i % len(e.engines)).PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, strat := range []Strategy{StrategyJoin, StrategyCache} {
		legacyIDs, _, err := legacyRun(e, 2, []string{"shared", "keyword"}, strat, 5)
		if err != nil {
			t.Fatal(err)
		}
		planIDs, _, err := planRun(e, 2, "shared keyword", strat, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(legacyIDs) != 5 || len(planIDs) != 5 {
			t.Errorf("%v: limit 5 gave legacy %d, plan %d", strat, len(legacyIDs), len(planIDs))
		}
	}
}

// TestStreamEarlyTermination pins the traffic payoff of the pull model: a
// consumer that stops after two results must not pay for the remaining
// item fetches a full drain performs.
func TestStreamEarlyTermination(t *testing.T) {
	e := newEnvWith(t, 24, dht.Config{}, map[int]int{6: 2})
	for i := 0; i < 16; i++ {
		f := File{Name: fmt.Sprintf("common term song%02d.mp3", i), Size: 1000,
			Host: fmt.Sprintf("10.7.0.%d", i), Port: 6346}
		if _, err := e.publisher(i % len(e.engines)).PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	run := func(stopAfter int) int {
		t.Helper()
		rs, err := e.search(6).QueryContext(context.Background(),
			Query{Text: "common term", Strategy: StrategyJoin})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		for i := 0; stopAfter <= 0 || i < stopAfter; i++ {
			if _, err := rs.Next(); err != nil {
				if errors.Is(err, ErrDone) {
					break
				}
				t.Fatal(err)
			}
		}
		return rs.Stats().Bytes
	}
	full := run(0)
	early := run(2)
	if early >= full {
		t.Errorf("early-terminated stream cost %d bytes, full drain %d — no fetches saved", early, full)
	}
}
