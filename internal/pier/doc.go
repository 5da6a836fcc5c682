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
//   - FetchContext and CountContext read one key's list, or its size,
//     from the DHT.
//   - ChainJoinContext runs the Figure 2 plan with serial selectivity
//     probes; ChainJoinConcurrentContext probes every keyword owner in
//     parallel for a posting-list count plus a Bloom filter of its
//     fileIDs, orders the chain smallest-first, and ships the
//     intersection of the later keys' filters with the plan so step 0
//     forwards only candidates that can survive every later join.
//     Results are identical (Bloom filters have no false negatives);
//     only traffic and latency shrink.
//   - CacheSelectContext runs the Figure 3 plan in one round-trip.
//
// Knobs live on Config:
//
//   - Workers bounds in-flight DHT operations per engine call
//     (default 8; 1 reproduces the fully sequential engine).
//   - BloomBits, BloomHashes set the pre-join filter geometry
//     (default 8192 bits / 4 hashes, i.e. 1 KiB per filter).
//   - OrderBySelectivity enables smallest-list-first chain ordering for
//     ChainJoinContext (§5); ChainJoinConcurrentContext always orders,
//     since its probes are prepaid.
//
// OpStats reports per-operation traffic (messages, bytes, hops, posting
// entries shipped) plus MaxInFlight, the concurrency high-water mark
// actually reached.
package pier
