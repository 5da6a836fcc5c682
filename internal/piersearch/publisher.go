package piersearch

import (
	"fmt"
	"time"

	"piersearch/internal/pier"
)

// PublishMode selects the index layout.
type PublishMode int

// Publish modes.
const (
	// ModeInverted publishes Item + Inverted tuples (Figure 2 layout).
	ModeInverted PublishMode = iota
	// ModeInvertedCache publishes Item + InvertedCache tuples, caching the
	// filename on every posting entry (Figure 3 layout). Costs more to
	// publish, much less to query.
	ModeInvertedCache
	// ModeBoth publishes both index layouts, letting queries choose.
	ModeBoth
)

// PublishStats reports the cost of publishing one file.
type PublishStats struct {
	Tuples   int // tuples stored (1 Item + one per keyword per layout)
	Keywords int
	Messages int
	Bytes    int // total bytes sent publishing, incl. DHT routing
	// Wall is the end-to-end wall-clock time of the publish, the latency a
	// sharing host actually observes.
	Wall time.Duration
	// MaxInFlight is the high-water mark of concurrent DHT puts; 1 means
	// the publish ran fully sequentially.
	MaxInFlight int
}

// Publisher turns shared files into PIERSearch tuples and publishes them
// into the DHT via a PIER engine (§3.1).
type Publisher struct {
	engine    *pier.Engine
	tokenizer Tokenizer
	mode      PublishMode
}

// NewPublisher creates a publisher. The engine must have the PIERSearch
// schemas registered (RegisterSchemas). The publish fan-out is the
// engine's pier.Config.Workers.
func NewPublisher(engine *pier.Engine, mode PublishMode, tk Tokenizer) *Publisher {
	return &Publisher{engine: engine, tokenizer: tk, mode: mode}
}

// WithMode returns a copy of p that publishes under mode. It does not
// mutate p: the query-service daemon derives a per-request publisher from
// one shared template, and requests must not race each other's mode.
func (p *Publisher) WithMode(mode PublishMode) *Publisher {
	q := *p
	q.mode = mode
	return &q
}

// IndexTuples expands f into the index tuples publishing it under mode
// produces: one Item tuple plus one Inverted and/or InvertedCache tuple
// per keyword. Publisher feeds these through the DHT put path; the scale
// harness uses the same expansion to place a corpus directly on the
// replica sets during its zero-traffic load phase, so both paths index
// identically.
func IndexTuples(f File, keywords []string, mode PublishMode) []pier.Pub {
	pubs := make([]pier.Pub, 0, 1+2*len(keywords))
	pubs = append(pubs, pier.Pub{Table: TableItem, Tuple: f.ItemTuple()})
	id := f.ID()
	for _, kw := range keywords {
		if mode == ModeInverted || mode == ModeBoth {
			pubs = append(pubs, pier.Pub{Table: TableInverted,
				Tuple: pier.Tuple{pier.String(kw), pier.Bytes(id[:])}})
		}
		if mode == ModeInvertedCache || mode == ModeBoth {
			pubs = append(pubs, pier.Pub{Table: TableInvertedCache,
				Tuple: pier.Tuple{pier.String(kw), pier.Bytes(id[:]), pier.String(f.Name)}})
		}
	}
	return pubs
}

// PublishFile indexes one file: an Item tuple under its fileID and one
// Inverted/InvertedCache tuple per keyword of its filename. All tuples of
// the file are independent, so they are put into the DHT through a bounded
// worker pool rather than one at a time. A publish is the root of its own
// work, so it runs under the engine node's lifetime context.
func (p *Publisher) PublishFile(f File) (PublishStats, error) {
	var stats PublishStats
	start := time.Now()
	keywords := p.tokenizer.Tokenize(f.Name)
	if len(keywords) == 0 {
		return stats, fmt.Errorf("piersearch: %q has no indexable keywords", f.Name)
	}
	stats.Keywords = len(keywords)

	res, err := p.engine.PublishBatchContext(p.engine.Node().Context(), IndexTuples(f, keywords, p.mode), 0)
	stats.Messages, stats.Bytes = res.Stats.Messages, res.Stats.Bytes
	stats.Tuples = res.Published
	stats.MaxInFlight = res.MaxInFlight
	stats.Wall = time.Since(start)
	if err != nil {
		return stats, fmt.Errorf("piersearch: publish %q: %w", f.Name, err)
	}
	return stats, nil
}
