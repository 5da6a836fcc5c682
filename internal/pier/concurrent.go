package pier

// This file implements the concurrent side of the engine: batched tuple
// publishing, the posting-list probe, and the chain join whose per-keyword
// probe phase overlaps network round-trips and prunes the shipped
// candidate stream with intersected Bloom filters.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"piersearch/internal/bloom"
	"piersearch/internal/dht"
)

// gauge tracks the high-water mark of concurrently running workers.
type gauge struct {
	mu       sync.Mutex
	cur, max int
}

func (g *gauge) enter() {
	g.mu.Lock()
	g.cur++
	if g.cur > g.max {
		g.max = g.cur
	}
	g.mu.Unlock()
}

func (g *gauge) exit() {
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

func (g *gauge) high() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// ForEachCtx runs fn(i) for every i in [0, n) with at most workers calls
// in flight and returns the observed concurrency high-water mark. workers
// <= 1 degenerates to a plain sequential loop. It is the bounded pool every
// concurrent engine path (and piersearch's fetch fan-out) runs on. Once ctx
// is done no further indexes are dispatched (calls already running finish
// — fn is expected to observe the same ctx and return promptly). It always
// waits for every dispatched call, so no worker goroutine outlives the
// return.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) int {
	var g gauge
	forEachCtx(ctx, n, workers, &g, fn)
	return g.high()
}

// forEachCtx is ForEachCtx with a caller-supplied gauge.
func forEachCtx(ctx context.Context, n, workers int, g *gauge, fn func(i int)) {
	if n <= 0 {
		return
	}
	done := ctx.Done()
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return
			default:
			}
			g.enter()
			fn(i)
			g.exit()
		}
		return
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				g.enter()
				fn(i)
				g.exit()
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}

// Workers returns the engine's configured fan-out bound.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Pub is one (table, tuple) pair for PublishBatch.
type Pub struct {
	Table string
	Tuple Tuple
}

// BatchResult reports the cost and outcome of one PublishBatch call.
type BatchResult struct {
	Stats       dht.LookupStats
	MaxInFlight int // concurrency high-water mark during the batch
	Published   int // entries stored successfully
}

// PublishBatchContext publishes every entry with up to workers DHT puts in
// flight (workers <= 0 means the engine's configured default) and returns
// the aggregate traffic cost. All entries are attempted even when some
// fail; the error for the earliest failing entry is returned. This is the
// hot path of file publishing: one file expands into an Item tuple plus a
// posting tuple per keyword, all independent, so fanning them out hides
// the per-put routing latency. Once ctx is done no further puts are
// dispatched, in-flight puts abort, and the context's error is returned.
func (e *Engine) PublishBatchContext(ctx context.Context, pubs []Pub, workers int) (BatchResult, error) {
	if workers <= 0 {
		workers = e.cfg.Workers
	}
	var mu sync.Mutex
	var res BatchResult
	errs := make([]error, len(pubs))
	var g gauge
	forEachCtx(ctx, len(pubs), workers, &g, func(i int) {
		ls, err := e.PublishContext(ctx, pubs[i].Table, pubs[i].Tuple)
		errs[i] = err
		mu.Lock()
		res.Stats.Add(ls)
		if err == nil {
			res.Published++
		}
		mu.Unlock()
	})
	res.MaxInFlight = g.high()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("pier: publish batch: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("pier: publish batch entry %d: %w", i, err)
		}
	}
	return res, nil
}

// The pre-join filter geometry: 8192 bits and 4 hashes, 1 KiB per
// filter. Every probe of every query uses it, so filters from any owners
// intersect, and a peer's filter of any other shape is dropped on decode.
const (
	filterBits   = 8192
	filterHashes = 4
)

// bloomMsg asks a key owner for its posting-list size and, when JoinCol
// is set, a Bloom filter of the list's join-column values, in one
// round-trip. An empty JoinCol asks for the count alone.
type bloomMsg struct {
	Table   string
	Key     Value
	JoinCol string
}

// bloomReply carries the probe result; Filter is a marshalled bloom.Filter,
// absent from a count-only reply.
type bloomReply struct {
	Count  int
	Filter []byte
	Err    string
}

func (e *Engine) handleBloom(_ dht.NodeInfo, data []byte) []byte {
	bloomErr := func(msg string) []byte {
		return encodeBloomReply(nil, &bloomReply{Err: msg})
	}
	msg, err := decodeBloomMsg(data)
	if err != nil {
		return bloomErr("bad bloom message")
	}
	sch, ok := e.Schema(msg.Table)
	if !ok {
		return bloomErr("unknown table " + msg.Table)
	}
	joinIdx := -1
	if msg.JoinCol != "" {
		if joinIdx = sch.ColIndex(msg.JoinCol); joinIdx < 0 {
			return bloomErr("no column " + msg.JoinCol)
		}
	}
	tuples, err := e.scan(sch, msg.Key)
	if err != nil {
		return bloomErr(err.Error())
	}
	if joinIdx < 0 {
		return encodeBloomReply(nil, &bloomReply{Count: len(tuples)})
	}
	f := bloom.New(filterBits, filterHashes)
	for _, t := range tuples {
		f.AddString(t[joinIdx].Key())
	}
	raw, err := f.MarshalBinary()
	if err != nil {
		return bloomErr(err.Error())
	}
	return encodeBloomReply(nil, &bloomReply{Count: len(tuples), Filter: raw})
}

// decodePreJoinFilter unmarshals a chainMsg pre-join filter or a probe
// reply's filter, returning nil when absent, malformed, or of any geometry
// but the fixed one (the chain then simply skips pruning). Both arrive
// from peers, and Test loops once per hash on every candidate.
func decodePreJoinFilter(raw []byte) *bloom.Filter {
	if len(raw) == 0 {
		return nil
	}
	f := new(bloom.Filter)
	if err := f.UnmarshalBinary(raw); err != nil || f.Bits() != filterBits || f.K() != filterHashes {
		return nil
	}
	return f
}

// keyProbe is one key's probe result during the chain join.
type keyProbe struct {
	key    Value
	count  int
	filter *bloom.Filter
}

// ChainJoinConcurrentContext executes the paper's Figure 2 plan: an
// equality lookup of each key, joined on joinCol by a chain of symmetric
// hash joins across the owning nodes, with the surviving joinCol values
// streamed back to this node. keys are index-key values for table (e.g.
// keywords for Inverted).
//
// Every key's owner is first probed, with up to Config.Workers probes in
// flight, for its posting-list size and a Bloom filter of its join values.
// With Config.OrderBySelectivity the chain then runs smallest list first.
// The intersection of the later keys' filters rides along with the plan,
// so the first step ships only candidates that can survive every later
// join — the pruning §5 needs to keep rare-item queries cheap at Internet
// scale. Bloom filters have no false negatives, so the pre-join changes
// traffic, never answers.
//
// Cancellation or deadline aborts the probe phase (no further probes are
// dispatched, in-flight probes abandon their round-trip), the dispatch
// RPC and the wait for the chain's result, returning an error wrapping
// ctx.Err(). Work already forwarded to remote owners runs to completion
// there — its result message is simply dropped at the origin.
func (e *Engine) ChainJoinConcurrentContext(ctx context.Context, table string, keys []Value, joinCol string, limit int) ([]Value, OpStats, error) {
	if len(keys) == 0 {
		return nil, OpStats{}, fmt.Errorf("pier: chain join needs at least one key")
	}
	sch, ok := e.Schema(table)
	if !ok {
		return nil, OpStats{}, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	if sch.ColIndex(joinCol) < 0 {
		return nil, OpStats{}, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, joinCol)
	}
	// With a tier, identical concurrent joins run once, and repeats are
	// served locally until a publish to any of the keys invalidates them.
	t := e.hot.Load()
	if t == nil {
		return e.chainJoinConcurrentRun(ctx, table, keys, joinCol, limit)
	}
	var stats OpStats
	sig, tags := joinSig(table, joinCol, keys, limit)
	vals, err := readThrough(ctx, t, sig, valuesSize, &stats, func() ([]Value, error) {
		vals, st, err := e.chainJoinConcurrentRun(ctx, table, keys, joinCol, limit)
		stats.Add(st)
		return vals, err
	}, tags...)
	return vals, stats, err
}

// chainJoinConcurrentRun is the probe+dispatch body of
// ChainJoinConcurrentContext, split out so the tier's read-through wraps
// it whole.
func (e *Engine) chainJoinConcurrentRun(ctx context.Context, table string, keys []Value, joinCol string, limit int) ([]Value, OpStats, error) {
	var stats OpStats
	msg := chainMsg{
		Table:   table,
		JoinCol: joinCol,
		Keys:    keys,
		Origin:  e.node.Info(),
	}
	if len(keys) > 1 {
		probes := e.probeKeys(ctx, table, keys, joinCol, &stats)
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("pier: chain join: %w", err)
		}
		if e.cfg.OrderBySelectivity {
			sort.SliceStable(probes, func(i, j int) bool { return probes[i].count < probes[j].count })
		}
		ordered := make([]Value, len(probes))
		for i, p := range probes {
			ordered[i] = p.key
		}
		msg.Keys = ordered
		// Intersect the later keys' filters (the first key scans locally;
		// a failed probe contributes nothing and cannot prune).
		var pre *bloom.Filter
		for _, p := range probes[1:] {
			if p.filter == nil {
				continue
			}
			if pre == nil {
				pre = p.filter.Clone()
				continue
			}
			if err := pre.Intersect(p.filter); err != nil {
				pre = nil // mismatched geometry: fall back to no pruning
				break
			}
		}
		// A partial intersection (some probes failed) still prunes against a
		// superset of the true candidate set, so it stays correct — Bloom
		// filters admit false positives but never false negatives.
		if pre != nil {
			if raw, err := pre.MarshalBinary(); err == nil {
				msg.Filter = raw
			}
		}
	}
	return e.dispatchChain(ctx, msg, &stats, limit)
}

// probeKeys issues the count+filter probe for every key with bounded
// parallelism, folding traffic into stats.
func (e *Engine) probeKeys(ctx context.Context, table string, keys []Value, joinCol string, stats *OpStats) []keyProbe {
	var mu sync.Mutex
	probes := make([]keyProbe, len(keys))
	for i, k := range keys {
		probes[i] = keyProbe{key: k, count: 1 << 30} // unknown: order last
	}
	var g gauge
	forEachCtx(ctx, len(keys), e.cfg.Workers, &g, func(i int) {
		br, st, err := e.bloomProbe(ctx, table, keys[i], joinCol)
		mu.Lock()
		stats.Add(st)
		mu.Unlock()
		if err != nil {
			return
		}
		probes[i].count = br.Count
		probes[i].filter = decodePreJoinFilter(br.Filter)
	})
	if g.high() > stats.MaxInFlight {
		stats.MaxInFlight = g.high()
	}
	return probes
}
