package plan

import (
	"context"
	"errors"
	"fmt"

	"piersearch/internal/pier"
)

// sliceSource is the shared core of leaf operators that materialize their
// tuples at Open and stream them from Next.
type sliceSource struct {
	ctx    context.Context
	open   bool
	tuples []pier.Tuple
	pos    int
	stats  OpStats
}

func (s *sliceSource) next() (pier.Tuple, error) {
	if !s.open {
		return nil, ErrNotOpen
	}
	if err := s.ctx.Err(); err != nil {
		return nil, ctxWrap(s.ctx, err)
	}
	if s.pos >= len(s.tuples) {
		return nil, ErrDone
	}
	t := s.tuples[s.pos]
	s.pos++
	s.stats.Tuples++
	return t, nil
}

func (s *sliceSource) close() error {
	s.open = false
	s.tuples = nil
	s.pos = 0
	return nil
}

// ChainJoin runs the distributed symmetric-hash-join chain over the owners
// of Keys (the paper's Figure 2 plan) and emits one single-column tuple
// per surviving join value: count+Bloom probes per key, smallest-first
// ordering when the engine sets OrderBySelectivity, and an
// intersected-Bloom pre-join pruning the shipped candidates.
//
// The chain protocol delivers its survivors in one result message, so the
// network work happens during Open; Next streams the buffered values.
// Canceling the context during Open aborts the probe fan-out, the
// dispatch RPC, and the wait for the result.
type ChainJoin struct {
	Engine  *pier.Engine
	Table   string
	Keys    []pier.Value
	JoinCol string
	Limit   int // max join values returned; 0 = unlimited

	src sliceSource
}

// Open implements Operator.
func (o *ChainJoin) Open(ctx context.Context) error {
	values, st, err := o.Engine.ChainJoinConcurrentContext(ctx, o.Table, o.Keys, o.JoinCol, o.Limit)
	o.src = sliceSource{ctx: ctx}
	o.src.stats.addEngineOp(st)
	if err != nil {
		return ctxWrap(ctx, err)
	}
	o.src.open = true
	o.src.tuples = make([]pier.Tuple, len(values))
	for i, v := range values {
		o.src.tuples[i] = pier.Tuple{v}
	}
	return nil
}

// Next implements Operator.
func (o *ChainJoin) Next() (pier.Tuple, error) { return o.src.next() }

// Close implements Operator.
func (o *ChainJoin) Close() error { return o.src.close() }

// Stats implements Operator.
func (o *ChainJoin) Stats() OpStats { return o.src.stats }

// CacheSelect ships the whole selection to the single owner of (Table,
// Key) — the paper's Figure 3 InvertedCache plan — and emits the tuples
// whose TextCol contains every Filters substring (case-folded). The
// round-trip happens during Open; Next streams the reply.
type CacheSelect struct {
	Engine  *pier.Engine
	Table   string
	Key     pier.Value
	Filters []string
	TextCol string
	Limit   int // max tuples returned by the owner; 0 = unlimited

	src sliceSource
}

// Open implements Operator.
func (o *CacheSelect) Open(ctx context.Context) error {
	tuples, st, err := o.Engine.CacheSelectContext(ctx, o.Table, o.Key, o.Filters, o.TextCol, o.Limit)
	o.src = sliceSource{ctx: ctx}
	o.src.stats.addEngineOp(st)
	if err != nil {
		return ctxWrap(ctx, err)
	}
	o.src.open = true
	o.src.tuples = tuples
	return nil
}

// Next implements Operator.
func (o *CacheSelect) Next() (pier.Tuple, error) { return o.src.next() }

// Close implements Operator.
func (o *CacheSelect) Close() error { return o.src.close() }

// Stats implements Operator.
func (o *CacheSelect) Stats() OpStats { return o.src.stats }

// DHTFetch resolves each input tuple's KeyCol value to the tuples stored
// in the DHT under (Table, value), emitting the fetched tuples. Fetches
// run the engine's Workers at a time: the operator pulls that many keys
// from its input, resolves the batch in parallel, streams the results,
// and only then pulls more — so a consumer that stops early (a Limit
// above, a canceled stream) wastes at most one batch of lookups.
type DHTFetch struct {
	Engine *pier.Engine
	Table  string
	KeyCol int
	Input  Operator

	ctx       context.Context
	open      bool
	inputDone bool
	buf       []pier.Tuple
	pos       int
	stats     OpStats
}

// Open implements Operator.
func (o *DHTFetch) Open(ctx context.Context) error {
	if err := o.Input.Open(ctx); err != nil {
		return err
	}
	o.ctx = ctx
	o.open = true
	o.inputDone = false
	o.buf, o.pos = nil, 0
	return nil
}

// Next implements Operator.
func (o *DHTFetch) Next() (pier.Tuple, error) {
	if !o.open {
		return nil, ErrNotOpen
	}
	for {
		if o.pos < len(o.buf) {
			t := o.buf[o.pos]
			o.pos++
			o.stats.Tuples++
			return t, nil
		}
		if o.inputDone {
			return nil, ErrDone
		}
		if err := o.fillBatch(); err != nil {
			return nil, err
		}
	}
}

// fillBatch pulls up to one batch of keys from the input and resolves
// them: cached keys inline, the rest in parallel. A missing value (e.g.
// its holder churned out) drops that key's tuples; lookup errors other
// than cancellation are likewise absorbed, matching the best-effort fetch
// phase of the legacy paths.
func (o *DHTFetch) fillBatch() error {
	var keys []pier.Value
	for len(keys) < o.Engine.Workers() {
		t, err := o.Input.Next()
		if errors.Is(err, ErrDone) {
			o.inputDone = true
			break
		}
		if err != nil {
			return err
		}
		if o.KeyCol >= len(t) {
			return fmt.Errorf("plan: dht fetch: input tuple has %d columns, key col is %d", len(t), o.KeyCol)
		}
		keys = append(keys, t[o.KeyCol])
	}
	if len(keys) == 0 {
		return nil
	}
	// The engine answers every key the tier holds on this goroutine and
	// sends only the misses to its pool, where identical concurrent
	// fetches share one lookup. Without a tier every key is a miss.
	fetched, cost := o.Engine.FetchCachedBatchContext(o.ctx, o.Table, keys)
	o.stats.addEngineOp(cost) // carries no Tuples; Next counts emissions
	if err := o.ctx.Err(); err != nil {
		return ctxWrap(o.ctx, err)
	}
	o.buf, o.pos = o.buf[:0], 0
	for _, ts := range fetched {
		o.buf = append(o.buf, ts...)
	}
	return nil
}

// Close implements Operator.
func (o *DHTFetch) Close() error {
	o.open = false
	o.buf, o.pos = nil, 0
	return o.Input.Close()
}

// Stats implements Operator.
func (o *DHTFetch) Stats() OpStats { return o.stats }

// Inputs implements InputsOperator.
func (o *DHTFetch) Inputs() []Operator { return []Operator{o.Input} }

// Limit emits at most N input tuples (N <= 0 means unlimited: the
// planner composes Limit unconditionally and zero disables it). Once the
// limit is reached Next returns ErrDone without pulling the input again,
// which is what stops upstream DHT fetches for candidates that can no
// longer rank.
type Limit struct {
	Input Operator
	N     int

	open  bool
	seen  int
	stats OpStats
}

// Open implements Operator.
func (o *Limit) Open(ctx context.Context) error {
	if err := o.Input.Open(ctx); err != nil {
		return err
	}
	o.open = true
	o.seen = 0
	return nil
}

// Next implements Operator.
func (o *Limit) Next() (pier.Tuple, error) {
	if !o.open {
		return nil, ErrNotOpen
	}
	if o.N > 0 && o.seen >= o.N {
		return nil, ErrDone
	}
	t, err := o.Input.Next()
	if err != nil {
		return nil, err
	}
	o.seen++
	o.stats.Tuples++
	return t, nil
}

// Close implements Operator.
func (o *Limit) Close() error {
	o.open = false
	return o.Input.Close()
}

// Stats implements Operator.
func (o *Limit) Stats() OpStats { return o.stats }

// Inputs implements InputsOperator.
func (o *Limit) Inputs() []Operator { return []Operator{o.Input} }

// Project restricts each input tuple to Cols, in the given order.
type Project struct {
	Input Operator
	Cols  []int

	open  bool
	stats OpStats
}

// Open implements Operator.
func (o *Project) Open(ctx context.Context) error {
	if err := o.Input.Open(ctx); err != nil {
		return err
	}
	o.open = true
	return nil
}

// Next implements Operator.
func (o *Project) Next() (pier.Tuple, error) {
	if !o.open {
		return nil, ErrNotOpen
	}
	t, err := o.Input.Next()
	if err != nil {
		return nil, err
	}
	out := make(pier.Tuple, len(o.Cols))
	for i, c := range o.Cols {
		if c >= len(t) {
			return nil, fmt.Errorf("plan: project: input tuple has %d columns, want col %d", len(t), c)
		}
		out[i] = t[c]
	}
	o.stats.Tuples++
	return out, nil
}

// Close implements Operator.
func (o *Project) Close() error {
	o.open = false
	return o.Input.Close()
}

// Stats implements Operator.
func (o *Project) Stats() OpStats { return o.stats }

// Inputs implements InputsOperator.
func (o *Project) Inputs() []Operator { return []Operator{o.Input} }

// Distinct suppresses duplicate tuples. With Cols set, only those columns
// form the identity (the whole tuple otherwise); the first tuple of each
// identity is emitted as-is.
type Distinct struct {
	Input Operator
	Cols  []int

	open  bool
	seen  map[string]bool
	stats OpStats
}

// Open implements Operator.
func (o *Distinct) Open(ctx context.Context) error {
	if err := o.Input.Open(ctx); err != nil {
		return err
	}
	o.open = true
	o.seen = make(map[string]bool)
	return nil
}

// Next implements Operator.
func (o *Distinct) Next() (pier.Tuple, error) {
	if !o.open {
		return nil, ErrNotOpen
	}
	for {
		t, err := o.Input.Next()
		if err != nil {
			return nil, err
		}
		key := ""
		if len(o.Cols) == 0 {
			for _, v := range t {
				key += v.Key() + "\x00"
			}
		} else {
			for _, c := range o.Cols {
				if c >= len(t) {
					return nil, fmt.Errorf("plan: distinct: input tuple has %d columns, want col %d", len(t), c)
				}
				key += t[c].Key() + "\x00"
			}
		}
		if !o.seen[key] {
			o.seen[key] = true
			o.stats.Tuples++
			return t, nil
		}
	}
}

// Close implements Operator.
func (o *Distinct) Close() error {
	o.open = false
	o.seen = nil
	return o.Input.Close()
}

// Stats implements Operator.
func (o *Distinct) Stats() OpStats { return o.stats }

// Inputs implements InputsOperator.
func (o *Distinct) Inputs() []Operator { return []Operator{o.Input} }
