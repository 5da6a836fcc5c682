package scale

import (
	"context"
	"errors"
	"sort"

	"piersearch/internal/piersearch"
	"piersearch/internal/simnet"
	"piersearch/internal/telemetry"
)

// scaleRingSpans bounds each simulated node's span ring. Only nodes that
// actually serve a traced request allocate theirs, so a 10k-node replay
// pays for the rings a handful of sampled queries touch, not for all.
const scaleRingSpans = 256

// attachTracers prepares the cluster for trace sampling: every non-core
// node gets a tracer (so owners record serve/lookup spans and piggyback
// them home on traced requests), while query origins get detached
// "shadow" tracers the harness mints sampled roots from. Keeping the
// origins' node tracers nil is what makes sampling selective — a query
// without a sampled root carries no trace context, and the untraced
// fast path records nothing anywhere.
func attachTracers(cl *Cluster, stableCore int, clock *simnet.Clock) []*telemetry.Tracer {
	for i := stableCore; i < len(cl.Nodes); i++ {
		cl.Nodes[i].SetTracer(telemetry.NewTracer(cl.Nodes[i].Info().Addr,
			telemetry.WithClock(clock.Now), telemetry.WithRingSize(scaleRingSpans)))
	}
	origins := make([]*telemetry.Tracer, stableCore)
	for i := range origins {
		origins[i] = telemetry.NewTracer(cl.Nodes[i].Info().Addr,
			telemetry.WithClock(clock.Now))
	}
	return origins
}

// tracedQuery runs one sampled query under a fresh root span and returns
// the assembled spans alongside the usual results: the origin's own
// spans (root, plan operators, lookup probes, RPCs) plus everything the
// serving nodes piggybacked back on their responses.
func tracedQuery(tr *telemetry.Tracer, s *piersearch.Search, text string, strat piersearch.Strategy, limit int) ([]piersearch.Result, piersearch.SearchStats, []telemetry.Span, error) {
	ctx, root := tr.StartRoot(context.Background(), "scale.query") //lint:allow ctxflow each sampled query starts its own trace root by design
	root.SetAttr("q", text)
	rs, err := s.QueryContext(ctx, piersearch.Query{Text: text, Strategy: strat, Limit: limit})
	if err != nil {
		root.FinishErr(err)
		return nil, piersearch.SearchStats{}, tr.TraceSpans(root.Trace()), err
	}
	var results []piersearch.Result
	for {
		r, rerr := rs.Next()
		if errors.Is(rerr, piersearch.ErrDone) {
			break
		}
		if rerr != nil {
			stats := rs.Stats()
			rs.Close()
			root.FinishErr(rerr)
			return nil, stats, tr.TraceSpans(root.Trace()), rerr
		}
		results = append(results, r)
	}
	stats := rs.Stats()
	rs.Close()
	root.Finish()
	return results, stats, tr.TraceSpans(root.Trace()), nil
}

// summarizeTrace reduces one sampled query's span set to the report's
// deterministic shape. Spans may contain duplicates (each traced
// response piggybacks a fresh snapshot), so everything counts distinct
// span IDs.
func summarizeTrace(index int, text string, spans []telemetry.Span, failed bool) TraceSummary {
	seen := make(map[telemetry.SpanID]bool, len(spans))
	rpcs := 0
	for _, sp := range spans {
		if seen[sp.ID] {
			continue
		}
		seen[sp.ID] = true
		if sp.Name == "dht.rpc" {
			rpcs++
		}
	}
	return TraceSummary{
		Index:  index,
		Query:  text,
		Spans:  len(seen),
		Nodes:  telemetry.TraceNodes(spans),
		Depth:  telemetry.TraceDepth(spans),
		RPCs:   rpcs,
		Failed: failed,
	}
}

// sortTraces orders sampled summaries by workload index: completion
// order interleaves under virtual time, the report wants stable layout.
func sortTraces(ts []TraceSummary) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Index < ts[j].Index })
}
