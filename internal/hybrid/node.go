package hybrid

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"piersearch/internal/gnutella"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/simnet"
)

// UltrapeerConfig tunes a hybrid ultrapeer (the Figure 17 client).
type UltrapeerConfig struct {
	// GnutellaTimeout is how long a query waits for flooding results
	// before being reissued via PIERSearch (§7 uses 30 s).
	GnutellaTimeout time.Duration
	// RareResultsThreshold is the QRS publishing rule of the deployment:
	// results of queries returning fewer than this many results are
	// identified as rare and published (§7 uses 20).
	RareResultsThreshold int
	// Strategy selects the PIERSearch query plan.
	Strategy piersearch.Strategy
	// PierHopDelay models per-DHT-hop latency when converting hop counts
	// into the reported PIER query latency; the deployment's 10–12 s
	// first-result latencies reflect wide-area hops plus PIER processing.
	PierHopDelay simnet.LatencyModel
	// Seed drives latency sampling.
	Seed int64
}

// Normalize fills defaults and returns the config.
func (c UltrapeerConfig) Normalize() UltrapeerConfig {
	if c.GnutellaTimeout <= 0 {
		c.GnutellaTimeout = 30 * time.Second
	}
	if c.RareResultsThreshold <= 0 {
		c.RareResultsThreshold = 20
	}
	if c.PierHopDelay == nil {
		c.PierHopDelay = simnet.Uniform{Min: 800 * time.Millisecond, Max: 1800 * time.Millisecond}
	}
	return c
}

// Source says which side of the hybrid answered a query.
type Source int

// Answer sources.
const (
	SourceGnutella Source = iota
	SourcePIER
	SourceNone
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceGnutella:
		return "gnutella"
	case SourcePIER:
		return "pier"
	default:
		return "none"
	}
}

// Outcome is the result of one hybrid query.
type Outcome struct {
	Source       Source
	Results      int
	FirstLatency time.Duration // -1 if no results

	// GnutellaResults and GnutellaLatency describe what flooding alone
	// eventually produced, including results that arrived only after the
	// hybrid timeout — the counterfactual §7 compares against.
	GnutellaResults int
	GnutellaLatency time.Duration // -1 if flooding never answered

	PierStats piersearch.SearchStats
}

// Ultrapeer is one hybrid LimeWire/PIERSearch client: a Gnutella ultrapeer
// plus the Gnutella proxy and PIERSearch client of Figure 17. The proxy
// watches forwarded query-result traffic, identifies rare items (QRS) and
// publishes them; queries that time out in Gnutella are reissued in PIER.
type Ultrapeer struct {
	Host gnutella.HostID

	gnet   *gnutella.Network
	lib    *gnutella.Library
	pub    *piersearch.Publisher
	search *piersearch.Search
	cfg    UltrapeerConfig
	rng    *rand.Rand

	published    map[piersearch.FileID]bool
	PublishCount int
	PublishBytes int
}

// NewUltrapeer wires a hybrid client together. engine is the node's PIER
// engine (with PIERSearch schemas registered), gnet/lib the shared overlay.
func NewUltrapeer(host gnutella.HostID, gnet *gnutella.Network, lib *gnutella.Library, engine *pier.Engine, cfg UltrapeerConfig) *Ultrapeer {
	cfg = cfg.Normalize()
	mode := piersearch.ModeInverted
	if cfg.Strategy == piersearch.StrategyCache {
		mode = piersearch.ModeInvertedCache
	}
	return &Ultrapeer{
		Host:      host,
		gnet:      gnet,
		lib:       lib,
		pub:       piersearch.NewPublisher(engine, mode, piersearch.Tokenizer{}),
		search:    piersearch.NewSearch(engine, piersearch.Tokenizer{}),
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(host))),
		published: make(map[piersearch.FileID]bool),
	}
}

// fileFor converts a Gnutella file reference into a PIERSearch File.
func (u *Ultrapeer) fileFor(ref gnutella.FileRef) piersearch.File {
	sf := u.lib.File(ref)
	return piersearch.File{
		Name: sf.Name,
		Size: sf.Size,
		Host: fmt.Sprintf("10.%d.%d.%d", ref.Host>>16&0xff, ref.Host>>8&0xff, ref.Host&0xff),
		Port: 6346,
	}
}

// ObserveResults is the Gnutella proxy path: the ultrapeer snoops the
// results of a query it forwarded. If the result set is small (QRS), every
// file in it is identified as rare and published into the DHT.
func (u *Ultrapeer) ObserveResults(refs []gnutella.FileRef) error {
	if len(refs) >= u.cfg.RareResultsThreshold {
		return nil
	}
	for _, ref := range refs {
		f := u.fileFor(ref)
		id := f.ID()
		if u.published[id] {
			continue
		}
		stats, err := u.pub.PublishFile(f)
		if err != nil {
			return err
		}
		u.published[id] = true
		u.PublishCount++
		u.PublishBytes += stats.Bytes
	}
	return nil
}

// PublishLocal pushes a host's whole file list into the DHT (the
// proactive path: BrowseHost on a leaf, then publish its rare items).
func (u *Ultrapeer) PublishLocal(host gnutella.HostID) error {
	for idx := range u.lib.Files(host) {
		ref := gnutella.FileRef{Host: host, Idx: idx}
		f := u.fileFor(ref)
		id := f.ID()
		if u.published[id] {
			continue
		}
		stats, err := u.pub.PublishFile(f)
		if err != nil {
			return err
		}
		u.published[id] = true
		u.PublishCount++
		u.PublishBytes += stats.Bytes
	}
	return nil
}

// QueryContext runs the hybrid search path for a leaf query entering at
// this ultrapeer: flood Gnutella, wait up to GnutellaTimeout (in overlay
// virtual time), and reissue through PIERSearch on timeout. The Gnutella
// simulation clock advances as a side effect. Cancellation aborts the
// PIERSearch reissue mid-flight (the Gnutella flooding phase runs in
// overlay virtual time and completes regardless).
func (u *Ultrapeer) QueryContext(ctx context.Context, text string, terms []string) (Outcome, error) {
	q := u.gnet.Query(u.Host, terms)
	deadline := q.Started + u.cfg.GnutellaTimeout
	u.gnet.Sim.RunUntil(deadline)

	if len(q.Results) > 0 {
		// Let in-flight hits drain so the outcome has the full Gnutella
		// result set, but the first-result latency is already fixed.
		u.gnet.Sim.Run()
		return Outcome{
			Source:          SourceGnutella,
			Results:         len(q.Results),
			FirstLatency:    q.FirstResultLatency(),
			GnutellaResults: len(q.Results),
			GnutellaLatency: q.FirstResultLatency(),
		}, nil
	}

	// Timed out: reissue via PIERSearch, streaming under the caller's ctx.
	results, stats, err := u.queryPier(ctx, text)
	if err != nil {
		return Outcome{Source: SourceNone, FirstLatency: -1, GnutellaLatency: -1, PierStats: stats}, err
	}
	u.gnet.Sim.Run() // drain late Gnutella traffic for the counterfactual
	out := Outcome{
		GnutellaResults: len(q.Results),
		GnutellaLatency: q.FirstResultLatency(),
		PierStats:       stats,
	}
	if results == 0 {
		out.Source = SourceNone
		out.FirstLatency = -1
		return out, nil
	}
	out.Source = SourcePIER
	out.Results = results
	out.FirstLatency = u.cfg.GnutellaTimeout + u.pierLatency(stats.Hops)
	return out, nil
}

// queryPier reissues the query through the PIERSearch plan API, counting
// streamed results.
func (u *Ultrapeer) queryPier(ctx context.Context, text string) (int, piersearch.SearchStats, error) {
	rs, err := u.search.QueryContext(ctx, piersearch.Query{Text: text, Strategy: u.cfg.Strategy})
	if err != nil {
		return 0, piersearch.SearchStats{}, err
	}
	defer rs.Close() //nolint:errcheck // read-only stream
	n := 0
	for {
		if _, err := rs.Next(); err != nil {
			if errors.Is(err, piersearch.ErrDone) {
				return n, rs.Stats(), nil
			}
			return n, rs.Stats(), err
		}
		n++
	}
}

// pierLatency converts a hop count into a modeled wall-clock latency.
func (u *Ultrapeer) pierLatency(hops int) time.Duration {
	if hops <= 0 {
		hops = 1
	}
	var total time.Duration
	for i := 0; i < hops; i++ {
		total += u.cfg.PierHopDelay.Delay(u.rng)
	}
	return total
}
