package pier

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
)

// App-handler dispatch keys on the DHT's application channel.
const (
	appChain  = "pier.chain"  // distributed SHJ chain step
	appBloom  = "pier.bloom"  // posting-list cardinality (+ Bloom filter) probe
	appCache  = "pier.cache"  // InvertedCache single-site plan
	appResult = "pier.result" // final results streamed back to the origin
)

// OpStats describes the cost of one distributed operation as observed at
// the origin, plus chain-internal counters carried back in the result
// message. PostingShipped counts posting-list entries rehashed between
// nodes — the quantity §5 of the paper compares across query classes.
type OpStats struct {
	Messages       int
	Bytes          int
	Hops           int
	PostingShipped int
	// MaxInFlight is the high-water mark of concurrent DHT operations the
	// engine had outstanding for this call (1 for fully sequential plans).
	MaxInFlight int
	// CacheHits counts sub-operations answered from the hot-key tier
	// without any network traffic; Coalesced counts sub-operations that
	// shared another caller's in-flight result; FanoutReads counts hot-key
	// reads diverted from the XOR-closest owner to another replica. All
	// zero when no tier is installed.
	CacheHits   int
	Coalesced   int
	FanoutReads int
}

func (s *OpStats) addLookup(l dht.LookupStats) {
	s.Messages += l.Messages
	s.Bytes += l.Bytes
	s.Hops += l.Hops
}

// Add folds o into s; MaxInFlight merges as a high-water mark.
func (s *OpStats) Add(o OpStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Hops += o.Hops
	s.PostingShipped += o.PostingShipped
	s.CacheHits += o.CacheHits
	s.Coalesced += o.Coalesced
	s.FanoutReads += o.FanoutReads
	if o.MaxInFlight > s.MaxInFlight {
		s.MaxInFlight = o.MaxInFlight
	}
}

// chainMsg is the plan+stream message forwarded along the keyword chain.
// The first recipient scans its posting list; each subsequent recipient
// symmetric-hash-joins the incoming candidate stream with its local list.
type chainMsg struct {
	QID        uint64
	Table      string
	JoinCol    string
	Keys       []Value // index-key value per step, in execution order
	Step       int
	Candidates []Value // join-column values surviving so far
	Origin     dht.NodeInfo
	Shipped    int // posting entries shipped so far
	Hops       int
	// Bytes accumulates the payload bytes shipped along the chain so the
	// origin can account the matching phase's real traffic (§7 compares
	// exactly this between the join and InvertedCache plans).
	Bytes int
	// Filter, when non-empty, is a marshalled bloom.Filter holding the
	// intersection of the later keys' posting filters. Step 0 seeds the
	// candidate stream only with values that pass it, so the chain ships
	// candidate fileIDs instead of the first full posting list.
	Filter []byte
}

// resultMsg carries final join results directly back to the origin node.
type resultMsg struct {
	QID     uint64
	Values  []Value
	Shipped int
	Hops    int
	Bytes   int // chain-internal payload bytes shipped between owners
	Err     string
}

// cacheMsg executes the InvertedCache plan at the owner of Key: scan the
// local list, keep tuples whose TextCol contains every Filter substring.
type cacheMsg struct {
	Table   string
	Key     Value
	TextCol string
	Filters []string
	Limit   int
}

// cacheReply returns the matching tuples in wire form.
type cacheReply struct {
	Tuples [][]byte
	Err    string
}

// All engine messages travel in the hand-rolled binary format of
// wirefmt.go (shared primitives in internal/codec). The paper's PIER used
// self-describing Java serialization and paid for it in every measured
// byte count; the explicit codec drops that overhead from the exact
// quantities §5/§7 compare. Outbound sends encode into pooled scratch
// buffers: every transport is synchronous, so the buffer is dead the
// moment the call returns and goes back to the pool.

// Config holds engine parameters.
type Config struct {
	// OrderBySelectivity makes multi-key joins execute smallest posting
	// list first, by the counts the chain's probes return (§5's
	// "optimized to compute smaller posting lists first"). Disable for the
	// ablation benchmark.
	OrderBySelectivity bool
	// Workers bounds how many DHT operations one engine call keeps in
	// flight at once (PublishBatch fan-out, the chain join's probe phase).
	// 1 means fully sequential; zero means the default of 8.
	Workers int
}

// chainTimeout bounds how long a distributed join waits for its result
// message.
const chainTimeout = 30 * time.Second

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// Engine is PIER on one node: schema registry, tuple publishing, local
// scans, and distributed join execution. All methods are safe for
// concurrent use.
type Engine struct {
	node *dht.Node
	cfg  Config

	mu      sync.Mutex
	schemas map[string]*Schema
	waiters map[uint64]chan resultMsg
	nextQID atomic.Uint64

	// hot is the optional hot-key survival tier (see hot.go); nil means
	// every path runs exactly as without one.
	hot atomic.Pointer[hotcache.Tier]
}

// NewEngine creates an engine bound to node and installs its app handlers.
func NewEngine(node *dht.Node, cfg Config) *Engine {
	e := &Engine{
		node:    node,
		cfg:     cfg.normalize(),
		schemas: make(map[string]*Schema),
		waiters: make(map[uint64]chan resultMsg),
	}
	node.RegisterApp(appChain, e.handleChain)
	node.RegisterApp(appBloom, e.handleBloom)
	node.RegisterApp(appCache, e.handleCache)
	node.RegisterApp(appResult, e.handleResult)
	return e
}

// Node returns the underlying DHT node.
func (e *Engine) Node() *dht.Node { return e.node }

// Register adds a schema to the engine's catalog. Every node that stores
// or queries a table must register the same schema.
func (e *Engine) Register(s *Schema) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.schemas[s.Name] = s
}

// Schema returns the registered schema for table, if any.
func (e *Engine) Schema(table string) (*Schema, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.schemas[table]
	return s, ok
}

// PublishContext validates t against the table's schema and stores its
// wire form in the DHT under the tuple's index key. It returns the traffic
// cost.
func (e *Engine) PublishContext(ctx context.Context, table string, t Tuple) (dht.LookupStats, error) {
	sch, ok := e.Schema(table)
	if !ok {
		return dht.LookupStats{}, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	if err := sch.Validate(t); err != nil {
		return dht.LookupStats{}, err
	}
	key, err := sch.IndexKey(t)
	if err != nil {
		return dht.LookupStats{}, err
	}
	ls, err := e.node.PutContext(ctx, table, key, t.Encode(nil))
	if err == nil {
		if ht := e.hot.Load(); ht != nil {
			// Invalidation-on-publish, requester side: any cached result
			// derived from this key is stale the moment the put acks. The
			// replicas purge through the dht store observer.
			id := dht.NamespacedID(table, key)
			ht.InvalidateID(id[:])
		}
	}
	return ls, err
}

// decodeValues parses a list of stored values into tuples.
func decodeValues(values []dht.StoredValue) ([]Tuple, error) {
	out := make([]Tuple, 0, len(values))
	for _, v := range values {
		t, _, err := DecodeTuple(v.Data)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// scan returns the tuples of sch's table stored on this node under key,
// without any network traffic. A STORE carries raw bytes from any peer, so
// the scan drops every tuple that fails the table's Schema.Validate — the
// check PublishContext runs at the origin — and owner-side handlers index
// columns of valid tuples only. With a hot tier installed the validated
// posting set is cached (and invalidated when a new replica store for the
// key arrives), so repeated scans of a hot key skip the per-request
// decode; callers must treat the returned tuples as immutable.
func (e *Engine) scan(sch *Schema, key Value) ([]Tuple, error) {
	id := keyID(sch.Name, key)
	t := e.hot.Load()
	if t == nil {
		return scanValid(sch, e.node.LocalGet(id))
	}
	tag := string(id[:])
	ck := "p|" + tag
	if v, ok := t.Data.Get(ck); ok {
		return v.([]Tuple), nil
	}
	tuples, err := scanValid(sch, e.node.LocalGet(id))
	if err != nil {
		return nil, err
	}
	t.Data.Put(ck, tuples, tuplesSize(tuples), tag)
	return tuples, nil
}

// scanValid decodes stored values and keeps the tuples sch accepts.
func scanValid(sch *Schema, values []dht.StoredValue) ([]Tuple, error) {
	tuples, err := decodeValues(values)
	if err != nil {
		return nil, err
	}
	valid := tuples[:0]
	for _, t := range tuples {
		if sch.Validate(t) == nil {
			valid = append(valid, t)
		}
	}
	return valid, nil
}

// FetchContext retrieves the tuples of table stored in the DHT under key.
// The value lookup aborts once ctx is done.
func (e *Engine) FetchContext(ctx context.Context, table string, key Value) ([]Tuple, dht.LookupStats, error) {
	values, stats, err := e.node.GetIDContext(ctx, keyID(table, key))
	if err != nil {
		return nil, stats, err
	}
	tuples, err := decodeValues(values)
	return tuples, stats, err
}

// CountContext asks the owner of (table, key) for its local posting-list
// size: the chain join's probe with no join column, so the owner answers
// with a count and no filter. With a hot tier installed the probe is
// cached, coalesced with identical in-flight probes, and fanned out across
// replicas for hot keys.
func (e *Engine) CountContext(ctx context.Context, table string, key Value) (int, dht.LookupStats, error) {
	br, st, err := e.bloomProbe(ctx, table, key, "")
	return br.Count, dht.LookupStats{Messages: st.Messages, Bytes: st.Bytes, Hops: st.Hops}, err
}

// dispatchChain registers a result waiter, ships msg to the owner of the
// first key, and blocks until the chain's result message, the context's
// cancellation, or the configured timeout.
func (e *Engine) dispatchChain(ctx context.Context, msg chainMsg, stats *OpStats, limit int) ([]Value, OpStats, error) {
	qid := e.nextQID.Add(1)
	msg.QID = qid
	ch := make(chan resultMsg, 1)
	e.mu.Lock()
	e.waiters[qid] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.waiters, qid)
		e.mu.Unlock()
	}()

	buf := encodeChainMsg(codec.GetBuf(), &msg)
	_, err := e.sendRead(ctx, keyID(msg.Table, msg.Keys[0]), appChain, buf, stats)
	codec.PutBuf(buf)
	if err != nil {
		return nil, *stats, fmt.Errorf("pier: chain dispatch: %w", err)
	}

	select {
	case res := <-ch:
		stats.PostingShipped = res.Shipped
		stats.Hops += res.Hops
		stats.Bytes += res.Bytes
		if res.Err != "" {
			return nil, *stats, fmt.Errorf("pier: chain join: %s", res.Err)
		}
		values := res.Values
		if limit > 0 && len(values) > limit {
			values = values[:limit]
		}
		return values, *stats, nil
	case <-ctx.Done():
		return nil, *stats, fmt.Errorf("pier: chain join %d: %w", qid, ctx.Err())
	case <-time.After(chainTimeout):
		return nil, *stats, fmt.Errorf("pier: chain join %d timed out after %v", qid, chainTimeout)
	}
}

func keyID(table string, key Value) dht.ID { return dht.NamespacedID(table, key.Key()) }

// handleChain runs one step of the distributed join at a keyword owner.
// The reply payload is empty: the dispatcher and forwarding owners ignore
// it, so acking with bytes would only inflate the matching-phase traffic.
func (e *Engine) handleChain(_ dht.NodeInfo, data []byte) []byte {
	msg, err := decodeChainMsg(data)
	if err != nil {
		return nil
	}
	if msg.Step > 0 {
		// Charge this forwarded payload to the chain's byte account. The
		// origin's dispatch (step 0) is already counted by its own Send.
		msg.Bytes += len(data)
	}
	e.runChainStep(msg)
	return nil
}

func (e *Engine) runChainStep(msg chainMsg) {
	fail := func(err error) {
		e.sendResult(msg.Origin, resultMsg{QID: msg.QID, Err: err.Error(), Shipped: msg.Shipped, Hops: msg.Hops, Bytes: msg.Bytes})
	}
	sch, ok := e.Schema(msg.Table)
	if !ok {
		fail(fmt.Errorf("node %s does not know table %s", e.node.Info().ID.Short(), msg.Table))
		return
	}
	joinIdx := sch.ColIndex(msg.JoinCol)
	if joinIdx < 0 {
		fail(fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, msg.Table, msg.JoinCol))
		return
	}
	local, err := e.scan(sch, msg.Keys[msg.Step])
	if err != nil {
		fail(err)
		return
	}

	// Join the incoming candidate stream with the local posting list. On
	// step 0 there is no incoming stream: the local list itself seeds the
	// candidates.
	var survivors []Value
	if msg.Step == 0 {
		pre := decodePreJoinFilter(msg.Filter)
		seen := map[string]bool{}
		for _, t := range local {
			v := t[joinIdx]
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if pre != nil && !pre.TestString(k) {
				continue // cannot be present under every later key
			}
			survivors = append(survivors, v)
		}
	} else {
		// This is the symmetric hash join of PIER on a batch: both inputs
		// are materialised when the step runs, so every candidate arrives
		// after every posting, and only the candidate side's probe of the
		// posting side's table can emit. The chain forwards join values,
		// not joined tuples, so that probe only asks whether a key is
		// present: a set of the local join keys answers it. Deleting a
		// key on its first hit keeps each survivor once, in candidate
		// order.
		keys := make(map[string]struct{}, len(local))
		for _, t := range local {
			keys[t[joinIdx].Key()] = struct{}{}
		}
		for _, v := range msg.Candidates {
			k := v.Key()
			if _, ok := keys[k]; ok {
				delete(keys, k)
				survivors = append(survivors, v)
			}
		}
	}

	last := msg.Step == len(msg.Keys)-1
	if last || len(survivors) == 0 {
		e.sendResult(msg.Origin, resultMsg{
			QID:     msg.QID,
			Values:  survivors,
			Shipped: msg.Shipped,
			Hops:    msg.Hops + 1,
			Bytes:   msg.Bytes,
		})
		return
	}

	next := msg
	next.Step++
	next.Candidates = survivors
	next.Filter = nil // only step 0 consults the pre-join filter
	next.Shipped += len(survivors)
	next.Hops++
	buf := encodeChainMsg(codec.GetBuf(), &next)
	// A chain step runs on the serving node, forwarding a message that
	// arrived off the wire: there is no originating context here, so it
	// runs under the node's lifetime, and origin death ends the query
	// through its own timeout.
	_, err = e.sendRead(e.node.Context(), keyID(msg.Table, msg.Keys[next.Step]), appChain, buf, nil)
	codec.PutBuf(buf)
	if err != nil {
		fail(fmt.Errorf("forward to step %d: %w", next.Step, err))
	}
}

// sendResult delivers a resultMsg to the origin node (possibly ourselves).
func (e *Engine) sendResult(origin dht.NodeInfo, res resultMsg) {
	buf := encodeResultMsg(codec.GetBuf(), &res)
	if origin.ID == e.node.Info().ID {
		e.handleResult(origin, buf)
	} else {
		e.node.SendToContext(e.node.Context(), origin, appResult, buf) //nolint:errcheck // origin death ends the query via timeout
	}
	codec.PutBuf(buf)
}

func (e *Engine) handleResult(_ dht.NodeInfo, data []byte) []byte {
	res, err := decodeResultMsg(data)
	if err != nil {
		return nil
	}
	e.mu.Lock()
	ch := e.waiters[res.QID]
	e.mu.Unlock()
	if ch != nil {
		select {
		case ch <- res:
		default: // duplicate result; first one wins
		}
	}
	return nil
}

// CacheSelectContext executes the paper's Figure 3 plan: the whole query
// is sent to the single owner of key, which scans its local list and
// filters by substring containment of every filter in textCol. No posting
// lists are shipped; the reply carries only matching tuples. The single
// round-trip to the key's owner aborts once ctx is done.
func (e *Engine) CacheSelectContext(ctx context.Context, table string, key Value, filters []string, textCol string, limit int) ([]Tuple, OpStats, error) {
	var stats OpStats
	sch, ok := e.Schema(table)
	if !ok {
		return nil, stats, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	if sch.ColIndex(textCol) < 0 {
		return nil, stats, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table, textCol)
	}
	do := func() ([]Tuple, error) {
		msg := cacheMsg{Table: table, Key: key, TextCol: textCol, Filters: filters, Limit: limit}
		buf := encodeCacheMsg(codec.GetBuf(), &msg)
		reply, err := e.sendRead(ctx, keyID(table, key), appCache, buf, &stats)
		codec.PutBuf(buf)
		if err != nil {
			return nil, err
		}
		cr, err := decodeCacheReply(reply)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		if cr.Err != "" {
			return nil, fmt.Errorf("pier: cache select: %s", cr.Err)
		}
		tuples := make([]Tuple, 0, len(cr.Tuples))
		for _, raw := range cr.Tuples {
			t, _, err := DecodeTuple(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrDecode, err)
			}
			tuples = append(tuples, t)
		}
		return tuples, nil
	}
	sig, tag := selectSig(table, key, filters, textCol, limit)
	tuples, err := readThrough(ctx, e.hot.Load(), sig, tuplesSize, &stats, do, tag)
	return tuples, stats, err
}

func (e *Engine) handleCache(_ dht.NodeInfo, data []byte) []byte {
	cacheErr := func(msg string) []byte {
		return encodeCacheReply(nil, &cacheReply{Err: msg})
	}
	msg, err := decodeCacheMsg(data)
	if err != nil {
		return cacheErr("bad cache message")
	}
	sch, ok := e.Schema(msg.Table)
	if !ok {
		return cacheErr("unknown table " + msg.Table)
	}
	textIdx := sch.ColIndex(msg.TextCol)
	if textIdx < 0 {
		return cacheErr("no column " + msg.TextCol)
	}
	local, err := e.scan(sch, msg.Key)
	if err != nil {
		return cacheErr(err.Error())
	}
	var reply cacheReply
next:
	for _, t := range local {
		if msg.Limit > 0 && len(reply.Tuples) == msg.Limit {
			break
		}
		text := t[textIdx].Text()
		for _, f := range msg.Filters {
			if !containsFold(text, f) {
				continue next
			}
		}
		reply.Tuples = append(reply.Tuples, t.Encode(nil))
	}
	return encodeCacheReply(nil, &reply)
}

// containsFold reports whether substr occurs in s under case folding,
// matching the paper's substring selection operators over filenames.
func containsFold(s, substr string) bool {
	if len(substr) == 0 {
		return true
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		if strings.EqualFold(s[i:i+len(substr)], substr) {
			return true
		}
	}
	return false
}
