package piersearch

import (
	"fmt"
	"sync"
	"testing"

	"piersearch/internal/dht"
)

// TestQueryConcurrentMatchesSequential checks that the query pipeline
// returns the same results with its fetches fanned out as with one at a
// time, for both strategies and several keyword counts.
func TestQueryConcurrentMatchesSequential(t *testing.T) {
	e := newEnvWith(t, 12, dht.Config{}, map[int]int{2: 1, 3: 8})
	publishAll(t, e)
	seq := e.search(2)
	conc := e.search(3)

	for _, strategy := range []Strategy{StrategyJoin, StrategyCache} {
		for _, query := range []string{
			"madonna",
			"madonna prayer",
			"madonna like prayer",
			"obscure garage band demo",
		} {
			sRes, sStats, sErr := seq.Query(query, strategy, 0)
			cRes, cStats, cErr := conc.Query(query, strategy, 0)
			if (sErr == nil) != (cErr == nil) {
				t.Fatalf("%s %q: sequential err %v, concurrent err %v", strategy, query, sErr, cErr)
			}
			if sErr != nil {
				continue
			}
			sNames, cNames := names(sRes), names(cRes)
			if fmt.Sprint(sNames) != fmt.Sprint(cNames) {
				t.Errorf("%s %q: sequential %v != concurrent %v", strategy, query, sNames, cNames)
			}
			if cStats.Matches != sStats.Matches {
				t.Errorf("%s %q: matches %d != %d", strategy, query, cStats.Matches, sStats.Matches)
			}
			if cStats.Wall <= 0 || sStats.Wall <= 0 {
				t.Errorf("%s %q: Wall not recorded (%v, %v)", strategy, query, sStats.Wall, cStats.Wall)
			}
		}
	}
}

// TestConcurrentJoinShipsNoMorePostings verifies the fetch fan-out never
// increases the posting traffic of the matching phase.
func TestConcurrentJoinShipsNoMorePostings(t *testing.T) {
	e := newEnvWith(t, 12, dht.Config{}, map[int]int{1: 1, 2: 8})
	publishAll(t, e)
	_, seqStats, err := e.search(1).Query("madonna like prayer", StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, concStats, err := e.search(2).Query("madonna like prayer", StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if concStats.PostingShipped > seqStats.PostingShipped {
		t.Errorf("PostingShipped: concurrent %d > sequential %d", concStats.PostingShipped, seqStats.PostingShipped)
	}
}

// TestConcurrentPublishAndQuery overlaps publishers and searchers across
// nodes; run with -race to exercise the full pipeline's locking.
func TestConcurrentPublishAndQuery(t *testing.T) {
	e := newEnv(t, 12)
	publishAll(t, e)

	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pub := e.publisher(g % len(e.engines))
			for i := 0; i < 6; i++ {
				f := File{
					Name: fmt.Sprintf("Concurrent Artist - Track %d-%d.mp3", g, i),
					Size: int64(1_000_000 + g*1000 + i),
					Host: fmt.Sprintf("10.1.%d.%d", g, i),
					Port: 6346,
				}
				if _, err := pub.PublishFile(f); err != nil {
					errs <- err
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			search := e.search((g + 3) % len(e.engines))
			for i := 0; i < 6; i++ {
				strategy := StrategyJoin
				if i%2 == 1 {
					strategy = StrategyCache
				}
				if _, _, err := search.Query("madonna prayer", strategy, 0); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Everything published concurrently must now be findable.
	res, _, err := e.search(0).Query("concurrent artist", StrategyJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 36 {
		t.Errorf("found %d concurrent-artist files, want 36", len(res))
	}
}
