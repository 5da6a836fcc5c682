package scale

import (
	"encoding/json"
	"math"
	"os"
	"sort"

	"piersearch/internal/telemetry"
	"piersearch/internal/trace"
)

// ReportSchema is the version tag of the BENCH_scale.json layout. Bump it
// whenever a field is added, removed, or changes meaning; CI fails on
// drift so the committed trajectory stays diffable.
//
// v2 added per-error-code failure breakdowns to the publish and query
// phases, hot-key-tier cache counters, and the hot-key phases (baseline
// vs cached Zipf replay with hottest-node traffic).
//
// v3 added the routing measurement phase (sampled iterative FindNode
// lookups with hop quantiles plus a routing-table census), per-query hop
// quantiles, and the churn-survival phase (permanent removals under live
// republish/refresh maintenance, then re-queries of pre-churn keys).
//
// v4 added distributed trace sampling: every TraceSample-th replayed
// query runs under a trace root, and the report carries one TraceSummary
// per sampled query (distinct spans, nodes covered, tree depth, RPC
// spans) plus the trace_sample config knob.
const ReportSchema = "piersearch/bench-scale/v4"

// Report is the replay's serializable result. Everything in it derives
// from virtual-time execution of a seeded config, so the same Config
// marshals to byte-identical JSON: fields are struct-ordered (no maps),
// floats are rounded to fixed precision, and no wall-clock quantity is
// recorded.
type Report struct {
	Schema         string          `json:"schema"`
	Config         ConfigStats     `json:"config"`
	Load           LoadStats       `json:"load"`
	Publish        PhaseStats      `json:"publish"`
	Routing        *RoutingReport  `json:"routing,omitempty"`
	Query          QueryStats      `json:"query"`
	Churn          ChurnStats      `json:"churn"`
	HotKey         *HotKeyStats    `json:"hot_key,omitempty"`
	Survival       *SurvivalReport `json:"survival,omitempty"`
	Traces         []TraceSummary  `json:"traces,omitempty"`
	VirtualSeconds float64         `json:"virtual_seconds"`
}

// TraceSummary is one sampled query's distributed trace, reduced to the
// deterministic figures worth committing: how many distinct spans the
// assembled tree holds, how many nodes it covers, how deep it nests,
// and how many DHT RPCs it recorded. Index is the query's position in
// the replayed workload.
type TraceSummary struct {
	Index  int    `json:"index"`
	Query  string `json:"query"`
	Spans  int    `json:"spans"`
	Nodes  int    `json:"nodes"`
	Depth  int    `json:"depth"`
	RPCs   int    `json:"rpcs"`
	Failed bool   `json:"failed,omitempty"`
}

// ConfigStats echoes the replay parameters that shaped the run.
type ConfigStats struct {
	Nodes         int     `json:"nodes"`
	StableCore    int     `json:"stable_core"`
	Seed          int64   `json:"seed"`
	DistinctFiles int     `json:"distinct_files"`
	TargetCopies  int     `json:"target_copies"`
	Queries       int     `json:"queries"`
	Publishes     int     `json:"publishes"`
	QPS           float64 `json:"qps"`
	PublishQPS    float64 `json:"publish_qps"`
	Limit         int     `json:"limit"`
	Strategy      string  `json:"strategy"`
	ChurnSessionS float64 `json:"churn_mean_session_s"`
	ChurnDownS    float64 `json:"churn_mean_downtime_s"`
	HotQueries    int     `json:"hot_queries"`
	HotWarmup     int     `json:"hot_warmup"`
	HotQPS        float64 `json:"hot_qps"`
	HotTerms      int     `json:"hot_terms"`
	HotOrigins    int     `json:"hot_origins"`
	HotZipfS      float64 `json:"hot_zipf_s"`

	TraceSample        int     `json:"trace_sample"`
	RoutingLookups     int     `json:"routing_lookups"`
	SurvivalKeys       int     `json:"survival_keys"`
	SurvivalRemoveFrac float64 `json:"survival_remove_frac"`
	RefreshIntervalS   float64 `json:"refresh_interval_s"`
	RepublishIntervalS float64 `json:"republish_interval_s"`
}

// LoadStats describes the directly placed corpus.
type LoadStats struct {
	DistinctFiles int `json:"distinct_files"`
	Instances     int `json:"instances"`
	TuplesPlaced  int `json:"tuples_placed"`
	Replicate     int `json:"replicate"`
}

// Quantiles summarises one histogram. Units depend on the field using it.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// FailureCount is one error class and how many operations it killed,
// classified by classifyFailure. The slice form (sorted by code) keeps
// the report map-free and so byte-stable.
type FailureCount struct {
	Code  string `json:"code"`
	Count int    `json:"count"`
}

// PhaseStats summarises the measured publish phase.
type PhaseStats struct {
	Count     int            `json:"count"`
	Failed    int            `json:"failed"`
	Failures  []FailureCount `json:"failures,omitempty"`
	LatencyMs Quantiles      `json:"latency_ms"`
	Messages  uint64         `json:"messages"`
	Bytes     uint64         `json:"bytes"`
}

// QueryStats summarises the replayed query phase.
type QueryStats struct {
	Count          int            `json:"count"`
	Failed         int            `json:"failed"`
	Failures       []FailureCount `json:"failures,omitempty"`
	Matches        int            `json:"matches"`
	PostingShipped int            `json:"posting_shipped"`
	LatencyMs      Quantiles      `json:"latency_ms"`
	MatchBytes     Quantiles      `json:"match_bytes"`
	Hops           Quantiles      `json:"hops"`
	HopsMean       float64        `json:"hops_mean"`
	Messages       uint64         `json:"messages"`
	Bytes          uint64         `json:"bytes"`
	Cache          *CacheStats    `json:"cache,omitempty"`
}

// CacheStats aggregates hot-tier counters across every node's tier for
// one phase (deltas for the main query phase, absolutes for the hot-key
// cached phase, whose tiers are fresh).
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Expirations   int64 `json:"expirations"`
	Invalidations int64 `json:"invalidations"`
	Coalesced     int64 `json:"coalesced"`
	FanoutReads   int64 `json:"fanout_reads"`
}

// HotNodeStats is the traffic the single most-loaded node absorbed
// during one hot-key phase — the survival quantity the tier exists to
// shrink.
type HotNodeStats struct {
	Addr     string `json:"addr"`
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

// HotPhaseStats summarises one hot-key replay (baseline or cached).
// Warmup queries run before measurement in both phases — identical
// sequences — so the cached phase is measured warm and the baseline
// phase pays the same extra load.
type HotPhaseStats struct {
	Queries     int            `json:"queries"`
	Warmup      int            `json:"warmup"`
	Failed      int            `json:"failed"`
	Failures    []FailureCount `json:"failures,omitempty"`
	Matches     int            `json:"matches"`
	LatencyMs   Quantiles      `json:"latency_ms"`
	Messages    uint64         `json:"messages"`
	Bytes       uint64         `json:"bytes"`
	HottestNode HotNodeStats   `json:"hottest_node"`
	Cache       *CacheStats    `json:"cache,omitempty"`
}

// HotKeyStats is the paired hot-key experiment: the same Zipf-skewed
// single-term workload replayed with the tier disabled and then with
// fresh tiers, plus the headline ratio CI asserts on.
type HotKeyStats struct {
	Terms    int           `json:"terms"`
	Origins  int           `json:"origins"`
	ZipfS    float64       `json:"zipf_s"`
	Baseline HotPhaseStats `json:"baseline"`
	Cached   HotPhaseStats `json:"cached"`
	// HottestMsgReduction = baseline hottest-node messages / cached
	// hottest-node messages (0 when the cached phase's hottest node
	// carried no traffic at all).
	HottestMsgReduction float64 `json:"hottest_msg_reduction"`
}

// RoutingReport summarises the routing measurement phase: sampled
// iterative FindNode lookups from stable-core origins, plus a census of
// routing-table state across every node. It answers the two structural
// questions the Kademlia layer exists for — do lookups converge in
// O(log n) hops, and is per-node routing state O(k·log n) rather than
// O(n)?
type RoutingReport struct {
	Lookups           int       `json:"lookups"`
	Failed            int       `json:"failed"`
	Hops              Quantiles `json:"hops"`
	LatencyMs         Quantiles `json:"latency_ms"`
	MessagesPerLookup float64   `json:"messages_per_lookup"`
	TableContacts     Quantiles `json:"table_contacts"`
	MaxTableContacts  int       `json:"max_table_contacts"`
	TotalContacts     int       `json:"total_contacts"`
	Messages          uint64    `json:"messages"`
	Bytes             uint64    `json:"bytes"`
}

// SurvivalReport summarises the churn-survival phase: a fraction of the
// non-core population is removed permanently while every node's
// republish/refresh maintenance runs, then keys placed before the
// removals are re-queried. Rate is the headline number the replication
// design is judged by.
type SurvivalReport struct {
	Keys              int       `json:"keys"`
	Succeeded         int       `json:"succeeded"`
	Rate              float64   `json:"rate"`
	RemovedNodes      int       `json:"removed_nodes"`
	RemoveFrac        float64   `json:"remove_frac"`
	Hops              Quantiles `json:"hops"`
	LatencyMs         Quantiles `json:"latency_ms"`
	RepublishedValues int64     `json:"republished_values"`
	HandoffsSent      int64     `json:"handoffs_sent"`
	Messages          uint64    `json:"messages"`
	Bytes             uint64    `json:"bytes"`
}

// ChurnStats describes the injected churn schedule.
type ChurnStats struct {
	Population  int     `json:"population"`
	Events      int     `json:"events"`
	MaxDownFrac float64 `json:"max_down_frac"`
}

func newReport(cfg Config, tr *trace.Trace) *Report {
	return &Report{
		Schema: ReportSchema,
		Config: ConfigStats{
			Nodes:         cfg.Nodes,
			StableCore:    cfg.StableCore,
			Seed:          cfg.Seed,
			DistinctFiles: len(tr.Files),
			TargetCopies:  tr.TotalInstances(),
			Queries:       len(tr.Queries),
			Publishes:     cfg.Publishes,
			QPS:           cfg.QPS,
			PublishQPS:    cfg.PublishQPS,
			Limit:         cfg.Limit,
			Strategy:      cfg.Strategy.String(),
			ChurnSessionS: cfg.Churn.MeanSession.Seconds(),
			ChurnDownS:    cfg.Churn.MeanDowntime.Seconds(),
			HotQueries:    cfg.HotKey.Queries,
			HotWarmup:     cfg.HotKey.Warmup,
			HotQPS:        cfg.HotKey.QPS,
			HotTerms:      cfg.HotKey.Terms,
			HotOrigins:    cfg.HotKey.Origins,
			HotZipfS:      cfg.HotKey.ZipfS,

			TraceSample:        cfg.TraceSample,
			RoutingLookups:     cfg.RoutingLookups,
			SurvivalKeys:       cfg.Survival.Keys,
			SurvivalRemoveFrac: cfg.Survival.RemoveFrac,
			RefreshIntervalS:   cfg.Survival.Refresh.Seconds(),
			RepublishIntervalS: cfg.Survival.Republish.Seconds(),
		},
	}
}

// failureCounts renders a failure-class histogram as a code-sorted slice
// (nil when nothing failed, keeping the JSON field omitted).
func failureCounts(m map[string]int) []FailureCount {
	if len(m) == 0 {
		return nil
	}
	codes := make([]string, 0, len(m))
	for c := range m {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	out := make([]FailureCount, len(codes))
	for i, c := range codes {
		out[i] = FailureCount{Code: c, Count: m[c]}
	}
	return out
}

// round3 rounds to three decimals so float noise cannot leak formatting
// differences into the committed JSON.
func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1000) / 1000
}

// quantilesMs converts a seconds-histogram into a millisecond summary.
func quantilesMs(h *telemetry.Histogram) Quantiles { return summarize(h, 1000) }

// quantilesRaw summarises a histogram in its native unit.
func quantilesRaw(h *telemetry.Histogram) Quantiles { return summarize(h, 1) }

func summarize(h *telemetry.Histogram, scale float64) Quantiles {
	if h.Count() == 0 {
		return Quantiles{}
	}
	return Quantiles{
		P50:  round3(h.Quantile(0.50) * scale),
		P95:  round3(h.Quantile(0.95) * scale),
		P99:  round3(h.Quantile(0.99) * scale),
		Mean: round3(h.Mean() * scale),
		Max:  round3(h.Max() * scale),
	}
}

// Marshal renders the report as indented JSON with a trailing newline —
// the exact bytes committed as BENCH_scale.json.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
