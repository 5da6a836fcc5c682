package telemetry

import (
	"context"
	"sync"
	"time"
)

// TraceID identifies one query end to end across every node it
// touches. Zero means "untraced".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no parent".
type SpanID uint64

// Attr is a key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span is one completed unit of work inside a trace. Start and Dur are
// measured on the recording node's clock (wall-monotonic on real
// daemons, virtual time under the scale harness); cross-node clocks
// are not comparable, only the parent/child structure is.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Node   string
	Start  time.Duration
	Dur    time.Duration
	Err    string
	Attrs  []Attr
}

// DefaultRingSpans is the per-node span ring capacity when the Tracer
// is constructed with size 0.
const DefaultRingSpans = 1024

// Tracer mints IDs and collects finished spans into a bounded ring.
// All methods are safe for concurrent use; a nil *Tracer is a valid
// disabled tracer (every method no-ops).
type Tracer struct {
	node string
	base uint64
	now  func() time.Duration

	mu    sync.Mutex
	seq   uint64
	ring  []Span              // allocated lazily on first record
	held  map[SpanID]struct{} // IDs of the spans in ring: what Absorb skips
	size  int
	next  int  // ring write cursor
	full  bool // ring has wrapped at least once
	drops uint64
}

// TracerOption configures NewTracer.
type TracerOption func(*Tracer)

// WithClock makes the tracer timestamp spans from now instead of the
// process monotonic clock. The scale harness passes its virtual clock
// so sampled traces are deterministic.
func WithClock(now func() time.Duration) TracerOption {
	return func(t *Tracer) { t.now = now }
}

// WithRingSize bounds the span ring (0 means DefaultRingSpans). The
// oldest span is evicted first once the ring is full.
func WithRingSize(n int) TracerOption {
	return func(t *Tracer) {
		if n > 0 {
			t.size = n
		}
	}
}

// NewTracer returns a tracer recording spans on behalf of the named
// node. The name is stamped into every span so client-side assembly
// can tell which node did the work.
func NewTracer(node string, opts ...TracerOption) *Tracer {
	t := &Tracer{node: node, base: fnv64(node), size: DefaultRingSpans}
	for _, o := range opts {
		o(t)
	}
	if t.now == nil {
		t0 := time.Now()
		t.now = func() time.Duration { return time.Since(t0) }
	}
	return t
}

// NewTraceID mints a fresh trace identifier. Deterministic given the
// node name and call order.
func (t *Tracer) NewTraceID() TraceID {
	if t == nil {
		return 0
	}
	return TraceID(t.nextID())
}

func (t *Tracer) nextID() uint64 {
	t.mu.Lock()
	t.seq++
	s := t.seq
	t.mu.Unlock()
	id := mix64(t.base ^ (s * 0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	return id
}

// record appends a finished span, evicting the oldest on overflow.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.recordLocked(s)
	t.mu.Unlock()
}

func (t *Tracer) recordLocked(s Span) {
	if t.ring == nil {
		t.ring = make([]Span, t.size)
		t.held = make(map[SpanID]struct{})
	}
	if t.full {
		t.drops++
		delete(t.held, t.ring[t.next].ID)
	}
	t.ring[t.next] = s
	t.held[s.ID] = struct{}{}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
}

// Absorb copies spans recorded on another node (piggy-backed on an RPC
// response) into this tracer's ring, preserving their Node stamp. A
// span the ring already holds is skipped: every traced response carries
// the responder's whole snapshot for the trace, so the n-th response
// from one node repeats n-1 spans — absorbed again they would evict the
// origin's own early spans and orphan their children.
func (t *Tracer) Absorb(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		if _, dup := t.held[s.ID]; !dup {
			t.recordLocked(s)
		}
	}
	t.mu.Unlock()
}

// snapshot returns ring contents oldest-first.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil {
		return nil
	}
	var out []Span
	if t.full {
		out = make([]Span, 0, len(t.ring))
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.next]...)
	}
	return out
}

// TraceSpans returns the ring's spans belonging to one trace, oldest
// first.
func (t *Tracer) TraceSpans(id TraceID) []Span {
	if t == nil || id == 0 {
		return nil
	}
	all := t.snapshot()
	out := make([]Span, 0, 8)
	for _, s := range all {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// TraceIDs returns the distinct trace IDs present in the ring, most
// recently touched last.
func (t *Tracer) TraceIDs() []TraceID {
	if t == nil {
		return nil
	}
	all := t.snapshot()
	seen := make(map[TraceID]bool, 8)
	var out []TraceID
	for _, s := range all {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			out = append(out, s.Trace)
		}
	}
	return out
}

// ActiveSpan is an in-progress span. A nil *ActiveSpan (returned when
// tracing is off) accepts every method as a no-op, so call sites never
// branch.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// Trace returns the span's trace ID (0 when nil).
func (s *ActiveSpan) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.span.Trace
}

// ID returns the span's own ID (0 when nil).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// SetAttr annotates the span.
func (s *ActiveSpan) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Val: val})
}

// Finish stamps the duration and commits the span to the ring.
func (s *ActiveSpan) Finish() { s.FinishErr(nil) }

// FinishErr is Finish carrying an error annotation.
func (s *ActiveSpan) FinishErr(err error) {
	if s == nil {
		return
	}
	s.span.Dur = s.t.now() - s.span.Start
	if err != nil {
		s.span.Err = err.Error()
	}
	s.t.record(s.span)
}

// Tracer returns the tracer this span records into (nil for nil
// spans), letting the span's creator absorb remote spans without
// re-deriving the tracer from a context.
func (s *ActiveSpan) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// spanRef is the context payload: which tracer to record into and the
// current position in the trace. Stored by value to keep StartSpan on
// the traced path down to the one context allocation.
type spanRef struct {
	t     *Tracer
	trace TraceID
	span  SpanID
}

type spanKey struct{}

// StartRoot mints a new trace rooted at a fresh span and returns a
// context carrying it. Nil tracers return the context unchanged and a
// nil span.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	return t.StartRemote(ctx, t.NewTraceID(), 0, name)
}

// StartRemote starts a span continuing a trace whose context arrived
// from another node (trace + parent span IDs off the wire). The
// returned context parents subsequent StartSpan calls under it.
func (t *Tracer) StartRemote(ctx context.Context, trace TraceID, parent SpanID, name string) (context.Context, *ActiveSpan) {
	if t == nil || trace == 0 {
		return ctx, nil
	}
	s := &ActiveSpan{t: t, span: Span{
		Trace:  trace,
		ID:     SpanID(t.nextID()),
		Parent: parent,
		Name:   name,
		Node:   t.node,
		Start:  t.now(),
	}}
	return context.WithValue(ctx, spanKey{}, spanRef{t: t, trace: trace, span: s.span.ID}), s
}

// StartHandler starts a server-side span continuing a trace whose
// context arrived on an RPC envelope, without deriving a context —
// transport handler signatures carry none. Nil tracers and zero trace
// IDs return a nil (no-op) span.
func (t *Tracer) StartHandler(trace TraceID, parent SpanID, name string) *ActiveSpan {
	if t == nil || trace == 0 {
		return nil
	}
	return &ActiveSpan{t: t, span: Span{
		Trace:  trace,
		ID:     SpanID(t.nextID()),
		Parent: parent,
		Name:   name,
		Node:   t.node,
		Start:  t.now(),
	}}
}

// StartSpan starts a child of the span in ctx. When ctx carries no
// span — tracing disabled or this query unsampled — it returns ctx
// unchanged and a nil span without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, nil
	}
	return ref.t.StartRemote(ctx, ref.trace, ref.span, name)
}

// FromContext reports the trace position carried by ctx: the tracer
// recording it plus the current trace and span IDs. ok is false when
// ctx carries no span.
func FromContext(ctx context.Context) (t *Tracer, trace TraceID, span SpanID, ok bool) {
	ref, k := ctx.Value(spanKey{}).(spanRef)
	if !k {
		return nil, 0, 0, false
	}
	return ref.t, ref.trace, ref.span, true
}

// fnv64 is FNV-1a, used to derive a per-node ID base from its name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer: spreads sequential counters into
// well-distributed IDs while staying fully deterministic.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
