// Package scale is the virtual-time scale harness: it runs 10k–100k-node
// PIERSearch clusters in-process in seconds of wall-clock time by
// replacing wall-clock link latency (dht.LocalNetwork.SetLatency) with
// an event-driven virtual clock.
//
// The substrate lives in internal/simnet:
//
//   - simnet.Clock: a deterministic cooperative scheduler. Workloads run
//     as clock tasks that may only block via Clock.Sleep; the scheduler
//     runs exactly one task at a time and hands control over at sleep
//     points in event-time order, so a seeded run is fully reproducible —
//     including shared-rng latency sampling and routing-table mutation
//     order.
//   - simnet.Net: a dht.Transport whose latency legs are Clock.Sleep
//     calls, with churn hooks (Detach/Reattach) and the same traffic
//     accounting as the wall-clock transports.
//   - simnet.ClockConfig: rebases a dht.Config's timestamps, task
//     spawning, sleeps and lookup waits onto the clock.
//
// This package builds the harness on it:
//
//   - Cluster: a cluster builder that skips the O(n·k) RPC bootstrap.
//     Node IDs are sorted and routing tables are warm-filled offline
//     (dht.Node.SeedContact) with contacts in every populated sibling
//     subtree, which is exactly the invariant Kademlia lookups need to
//     converge. It also answers exact XOR-closest queries so the load
//     phase can place tuples directly on the replica set a later lookup
//     will search.
//   - Replay: a workload driver that loads an internal/trace corpus,
//     replays measured publishes and queries at configurable virtual QPS
//     through the real engine paths, injects an internal/gnutella churn
//     schedule mid-run, and reports per-phase latency/byte histograms.
//   - Hot-key phases (hotkey.go): an optional paired experiment after
//     churn drains — the same Zipf-skewed single-term workload replayed
//     with every node's internal/hotcache tier removed and then with
//     fresh tiers, over identical networks. simnet.Net's per-destination
//     counters locate the hottest node in each phase; the report carries
//     its load under both and their ratio. The tier's singleflight waits
//     must poll via simnet.Clock.Sleep (see scaleTierOptions) — a channel
//     select would block outside the scheduler and deadlock the clock.
//   - Report: the schema-versioned, deterministically-ordered JSON the
//     replay serializes to BENCH_scale.json so the perf trajectory is
//     diffable PR-over-PR. Schema v2 added per-error-code failure
//     breakdowns (classifyFailure), per-phase cache counters, and the
//     hot_key section.
package scale
