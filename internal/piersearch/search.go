package piersearch

import (
	"context"
	"errors"
	"sort"
	"time"

	"piersearch/internal/pier"
)

// Strategy selects the query plan.
type Strategy int

// Query strategies.
const (
	// StrategyJoin executes the distributed symmetric-hash-join chain over
	// Inverted posting lists (Figure 2).
	StrategyJoin Strategy = iota
	// StrategyCache sends the whole query to one keyword owner and filters
	// by substring over the cached fulltext (Figure 3, InvertedCache).
	StrategyCache
)

// String names the strategy.
func (s Strategy) String() string {
	if s == StrategyCache {
		return "inverted-cache"
	}
	return "distributed-join"
}

// Result is one query answer: a file location.
type Result struct {
	File   File
	FileID FileID
}

// ItemTuple rebuilds the Item tuple the result was read from, under the
// FileID it carries: no hash is computed. For an honestly published Item
// (stored ID = hash of its fields) this is File.ItemTuple(); for one
// stored under another ID it is the tuple as stored.
func (r Result) ItemTuple() pier.Tuple { return itemTuple(r.FileID, r.File) }

// SearchStats reports the cost of answering one query.
type SearchStats struct {
	Strategy       Strategy
	Keywords       int
	Matches        int // fileIDs matched before Item fetch
	Messages       int
	Bytes          int
	Hops           int
	PostingShipped int
	// MatchBytes is the traffic of the fileID-matching phase alone,
	// excluding the final Item fetches — the quantity §7 compares between
	// the InvertedCache (~850 B) and distributed-join (~20 KB) plans.
	MatchBytes int
	// Wall is the end-to-end wall-clock latency of the query as the user
	// observes it.
	Wall time.Duration
	// MaxInFlight is the high-water mark of concurrent DHT operations
	// during the query; 1 means the plan executed fully sequentially.
	MaxInFlight int
	// CacheHits counts plan steps answered from the node's hot-key tier
	// without network traffic; Coalesced counts steps that shared another
	// in-flight identical call; FanoutReads counts hot-key reads spread
	// to a non-primary replica. All zero when no tier is installed.
	CacheHits   int
	Coalesced   int
	FanoutReads int
}

// Search answers conjunctive keyword queries against the PIERSearch index.
type Search struct {
	engine    *pier.Engine
	tokenizer Tokenizer
}

// NewSearch creates a search engine. The PIER engine must have the
// PIERSearch schemas registered. The query fan-out is the engine's
// pier.Config.Workers.
func NewSearch(engine *pier.Engine, tk Tokenizer) *Search {
	return &Search{engine: engine, tokenizer: tk}
}

// Query answers query with the given strategy, returning up to limit
// results (0 = unlimited). Results are sorted by filename then host for
// deterministic output. With more than one worker configured, the join
// plan runs through the engine's concurrent chain join (parallel probes,
// Bloom pre-join) and the final Item fetches fan out through a bounded
// worker pool.
//
// Query is the blocking convenience wrapper over QueryContext: it compiles
// the same operator plan, drains the stream and sorts. Use QueryContext to
// stream results incrementally or to cancel a wide-area query in flight.
func (s *Search) Query(query string, strategy Strategy, limit int) ([]Result, SearchStats, error) {
	start := time.Now()
	rs, err := s.QueryContext(context.Background(), Query{Text: query, Strategy: strategy, Limit: limit}) //lint:allow ctxflow Query is the documented blocking wrapper; cancelable callers use QueryContext
	if err != nil {
		return nil, SearchStats{Strategy: strategy, Wall: time.Since(start)}, err
	}
	defer rs.Close()

	var results []Result
	for {
		r, err := rs.Next()
		if errors.Is(err, ErrDone) {
			break
		}
		if err != nil {
			stats := rs.Stats()
			stats.Wall = time.Since(start)
			return nil, stats, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].File.Name != results[j].File.Name {
			return results[i].File.Name < results[j].File.Name
		}
		return results[i].File.Host < results[j].File.Host
	})
	stats := rs.Stats()
	stats.Wall = time.Since(start)
	return results, stats, nil
}
