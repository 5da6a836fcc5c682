// Package piersearch implements the paper's primary contribution:
// PIERSearch, a keyword search engine for file-sharing built on the PIER
// distributed query processor (§3). A Publisher turns shared files into
// Item and Inverted (or InvertedCache) tuples published into the DHT; a
// Search engine answers conjunctive keyword queries either with the
// distributed symmetric-hash-join plan of Figure 2 or the single-site
// InvertedCache plan of Figure 3.
//
// # Concurrency
//
// Both halves of the pipeline run through bounded worker pools by
// default, because every DHT operation they issue is independent:
//
//   - Publisher.PublishFile expands a file into 1 Item tuple plus one
//     posting tuple per keyword per layout and puts them concurrently via
//     pier.(*Engine).PublishBatch.
//   - Search.Query, under StrategyJoin, delegates to the engine's
//     concurrent chain join (parallel probes + Bloom pre-join); under
//     both strategies the final Item fetches fan out in parallel.
//
// The fan-out bound is the engine's pier.Config.Workers (default 8), for
// batch puts, chain-join probes and Item fetches alike; nothing above the
// engine overrides it. To reproduce the fully sequential paper pipeline,
// as the root package's benchmarks do, build the engine with
// pier.Config{Workers: 1}.
//
// PublishStats and SearchStats expose Wall (end-to-end wall-clock time)
// and MaxInFlight (the concurrency high-water mark) so the overlap is
// directly measurable next to the paper's message/byte accounting.
package piersearch
