// Package pier implements a relational query processor over a DHT, after
// PIER (Huebsch et al., VLDB 2003) as used by the paper's PIERSearch. It
// provides typed tuples and schemas and the two distributed plans the
// paper runs: tuples are published into the DHT under an index key, and a
// multi-way equi-join executes as a chain of joins across the nodes that
// own each key, the query plan of the paper's Figure 2; the InvertedCache
// single-site selection of Figure 3 ships the whole query to one owner.
// Owner-side work is a loop over the key's posting list: a chain step
// probes a set of its join values, a cache select filters its text.
//
// # Concurrency
//
// The Engine is safe for concurrent use. Every network operation takes a
// ctx:
//
//   - PublishContext validates and stores one tuple;
//     PublishBatchContext fans a set of independent tuples out through a
//     bounded worker pool, hiding per-put routing latency (the paper's
//     publishing dominates its measured overhead).
//   - FetchContext reads one key's posting list from the DHT;
//     CountContext asks the key's owner for the list's size.
//   - ChainJoinConcurrentContext runs the Figure 2 plan. It probes every
//     keyword owner for a posting-list count plus a Bloom filter of its
//     fileIDs (one probe message, of which CountContext is the
//     filterless form), orders the chain by the counts, and ships the
//     intersection of the later keys' filters with the plan, so step 0
//     forwards only candidates that can survive every later join. Bloom
//     filters have no false negatives, so the pre-join changes traffic
//     and latency, never answers. Every filter has one fixed geometry
//     (8192 bits, 4 hashes: 1 KiB); a peer's filter of any other shape
//     is dropped and the chain runs unpruned.
//   - CacheSelectContext runs the Figure 3 plan in one round-trip.
//
// Knobs live on Config:
//
//   - Workers bounds in-flight DHT operations per engine call, the chain
//     join's probes and the plan's Item fetches included (default 8; 1
//     runs them one at a time). Nothing above the engine overrides it.
//   - OrderBySelectivity runs the chain smallest posting list first, by
//     the probed counts (§5); off, it runs in the keys' given order.
//
// OpStats reports per-operation traffic (messages, bytes, hops, posting
// entries shipped) plus MaxInFlight, the concurrency high-water mark
// actually reached, and the hot-key tier's counters. It is the one cost
// type of the query path: plan.OpStats and piersearch.SearchStats embed
// it.
package pier
