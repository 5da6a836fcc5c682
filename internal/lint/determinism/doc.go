// Package determinism checks the replay-determinism invariant.
//
// # Invariant
//
// PR 6's scale harness replays 10k–100k node clusters on an
// event-driven virtual clock and commits a BENCH_scale.json whose
// bytes must be identical across runs — CI diffs it to gate schema
// drift and perf regressions. That contract, and the codec's
// byte-identical plan-vs-legacy equivalence from PR 3, survive only
// if nothing in those paths observes the environment:
//
//   - No wall clocks in internal/scale, internal/simnet,
//     internal/gnutella or internal/codec: time.Now, time.Sleep,
//     time.Since, time.After, timers and tickers all read the machine
//     clock. The harness and the Gnutella overlay take every instant
//     from simnet.Clock; the codec is a pure function of its input.
//   - No global math/rand anywhere the rule is scoped: the package
//     -level source is seeded randomly at process start (and
//     rand.Seed is gone), so rand.Intn in a replay path makes two
//     runs diverge. Deterministic code draws from a seeded
//     *rand.Rand threaded through it — methods on *rand.Rand are
//     exempt.
//   - No map iteration in encode paths, repo-wide: Go randomizes map
//     order per run, so ranging over a map while producing wire bytes
//     or persisted output (functions named Encode*/Append*/Marshal*/
//     WireSize*, and everything in internal/codec) cannot produce
//     byte-identical frames. Collect the keys, sort, then emit.
//
// # Suppressing
//
// Rare legitimate escapes (e.g. an encode helper ranging a map to
// compute an order-insensitive checksum) are annotated in place:
//
//	for k := range set { //lint:allow determinism xor-fold is order-insensitive
//
// The reason must say why order or wall time cannot reach the output.
package determinism
