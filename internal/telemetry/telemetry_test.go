package telemetry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"piersearch/internal/codec"
)

func newReader(buf []byte) *codec.Reader { return codec.NewReader(buf) }

// fakeClock is a settable clock for deterministic span timestamps.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func newTestTracer(name string, opts ...TracerOption) (*Tracer, *fakeClock) {
	c := &fakeClock{}
	return NewTracer(name, append([]TracerOption{WithClock(c.Now)}, opts...)...), c
}

func TestSpanLifecycle(t *testing.T) {
	tr, clk := newTestTracer("node-a")
	ctx, root := tr.StartRoot(context.Background(), "query")
	if root == nil {
		t.Fatal("StartRoot returned nil span")
	}
	root.SetAttr("q", "madonna")
	clk.now = 5 * time.Millisecond

	_, child := StartSpan(ctx, "lookup")
	if child == nil {
		t.Fatal("StartSpan under a traced ctx returned nil")
	}
	if child.Trace() != root.Trace() {
		t.Fatalf("child trace %x != root trace %x", child.Trace(), root.Trace())
	}
	clk.now = 8 * time.Millisecond
	child.Finish()
	clk.now = 10 * time.Millisecond
	root.Finish()

	spans := tr.TraceSpans(root.Trace())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ring order is completion order: child first.
	if spans[0].Name != "lookup" || spans[1].Name != "query" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != root.ID() {
		t.Fatalf("child parent = %x, want root %x", spans[0].Parent, root.ID())
	}
	if spans[0].Dur != 3*time.Millisecond {
		t.Fatalf("child dur = %v, want 3ms", spans[0].Dur)
	}
	if spans[1].Attrs[0] != (Attr{Key: "q", Val: "madonna"}) {
		t.Fatalf("root attrs = %+v", spans[1].Attrs)
	}
	if spans[0].Node != "node-a" {
		t.Fatalf("node stamp = %q", spans[0].Node)
	}
}

func TestNilTracerAndSpanNoOp(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if _, sp2 := StartSpan(ctx, "y"); sp2 != nil {
		t.Fatal("StartSpan on untraced ctx returned a span")
	}
	// All nil-span methods must be callable.
	sp.SetAttr("k", "v")
	sp.Finish()
	sp.FinishErr(errors.New("boom"))
	if sp.Trace() != 0 || sp.ID() != 0 || sp.Tracer() != nil {
		t.Fatal("nil span leaked state")
	}
	if tr.TraceSpans(1) != nil || tr.Spans() != nil || tr.NewTraceID() != 0 {
		t.Fatal("nil tracer returned data")
	}
}

func TestDisabledPathAllocsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "hot")
		sp.SetAttr("k", "v")
		sp.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, tr, sp, ok := FromContext(ctx); ok || tr != 0 || sp != 0 {
			t.Fatal("untraced ctx carried ids")
		}
	})
	if allocs != 0 {
		t.Fatalf("FromContext allocates %v per op on untraced ctx, want 0", allocs)
	}
	var c *Counter
	var h *Histogram
	allocs = testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("nil metrics allocate %v per op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan pins the untraced query hot path: starting a
// span on a context with no trace must stay at 0 allocs/op so tracing
// costs nothing unless a query is sampled.
func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "hot")
		sp.SetAttr("k", "v")
		sp.Finish()
	}
}

// BenchmarkTracedSpan measures the sampled path for comparison: one
// child span minted, annotated, and committed to the ring.
func BenchmarkTracedSpan(b *testing.B) {
	tr := NewTracer("bench")
	ctx, root := tr.StartRoot(context.Background(), "root")
	defer root.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "hot")
		sp.Finish()
	}
}

func TestRingEvictsOldestFirst(t *testing.T) {
	tr, clk := newTestTracer("n", WithRingSize(4))
	trace := tr.NewTraceID()
	for i := 0; i < 7; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		sp := tr.StartHandler(trace, 0, fmt.Sprintf("s%d", i))
		sp.Finish()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first snapshot of the surviving window: s3..s6.
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i+3); s.Name != want {
			t.Fatalf("spans[%d] = %q, want %q", i, s.Name, want)
		}
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

// TestAbsorbSkipsSpansAlreadyHeld: every traced response piggybacks the
// responder's whole snapshot for the trace, so an origin that probes one
// node n times is handed its first serve span n times. Absorbed again each
// time, the copies filled the origin's ring and evicted its own oldest
// spans — the dht.rpc parents of those very serve spans — which is how a
// trace of ~130 RPCs over ten nodes came back with orphan roots.
func TestAbsorbSkipsSpansAlreadyHeld(t *testing.T) {
	origin, _ := newTestTracer("origin", WithRingSize(16))
	owner, _ := newTestTracer("owner")
	trace := origin.NewTraceID()
	_, root := origin.StartRemote(context.Background(), trace, 0, "root")
	root.Finish()

	for rpc := 0; rpc < 12; rpc++ {
		owner.StartHandler(trace, root.ID(), "serve").Finish()
		origin.Absorb(owner.TraceSpans(trace)) // 1, 2, ... 12 spans: 78 in all
	}
	spans := origin.TraceSpans(trace)
	if len(spans) != 13 {
		t.Fatalf("origin holds %d spans, want its root and the owner's 12", len(spans))
	}
	if spans[0].Name != "root" {
		t.Fatalf("the root was evicted by re-absorbed copies: oldest span is %q", spans[0].Name)
	}
	if origin.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", origin.Dropped())
	}

	// A span that was evicted is absorbed again if it shows up later.
	small, _ := newTestTracer("small", WithRingSize(2))
	snapshot := owner.TraceSpans(trace)[:3]
	small.Absorb(snapshot)
	small.Absorb(snapshot[:1])
	if got := small.Spans(); len(got) != 2 || got[1].ID != snapshot[0].ID {
		t.Fatalf("evicted span was not re-absorbed: ring = %+v", got)
	}
}

func TestDeterministicIDs(t *testing.T) {
	a1, _ := newTestTracer("same-name")
	a2, _ := newTestTracer("same-name")
	b, _ := newTestTracer("other-name")
	if a1.NewTraceID() != a2.NewTraceID() {
		t.Fatal("same node name + same sequence minted different IDs")
	}
	if a1.NewTraceID() == b.NewTraceID() {
		t.Fatal("different node names minted colliding IDs")
	}
}

func TestTraceContextWireRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		trace TraceID
		span  SpanID
	}{{0, 0}, {42, 7}, {^TraceID(0), ^SpanID(0)}} {
		buf := AppendTraceContext(nil, tc.trace, tc.span)
		r := newReader(buf)
		gt, gs := ReadTraceContext(r)
		if r.Err() != nil {
			t.Fatalf("%+v: %v", tc, r.Err())
		}
		wantSpan := tc.span
		if tc.trace == 0 {
			wantSpan = 0
		}
		if gt != tc.trace || gs != wantSpan {
			t.Fatalf("round trip (%x,%x) -> (%x,%x)", tc.trace, tc.span, gt, gs)
		}
	}
	// Legacy frame: nothing trailing decodes as untraced.
	if tr, sp := ReadTraceContext(newReader(nil)); tr != 0 || sp != 0 {
		t.Fatal("empty reader should yield zero context")
	}
	// Hostile: unknown flag, flagged-traced-but-zero id.
	if r := newReader([]byte{9}); func() bool { ReadTraceContext(r); return r.Err() == nil }() {
		t.Fatal("unknown flag accepted")
	}
	zero := append([]byte{1}, make([]byte, 16)...)
	if r := newReader(zero); func() bool { ReadTraceContext(r); return r.Err() == nil }() {
		t.Fatal("zero trace id accepted")
	}
}

func TestSpansWireRoundTrip(t *testing.T) {
	in := []Span{
		{Trace: 3, ID: 10, Parent: 0, Name: "query", Node: "a", Start: time.Millisecond, Dur: 5 * time.Millisecond},
		{Trace: 3, ID: 11, Parent: 10, Name: "serve.get", Node: "b", Start: 2 * time.Millisecond, Dur: time.Millisecond,
			Err: "not found", Attrs: []Attr{{Key: "kind", Val: "get"}, {Key: "to", Val: "b"}}},
	}
	buf := AppendSpans(nil, in)
	r := newReader(buf)
	out := ReadSpans(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Trace != b.Trace || a.ID != b.ID || a.Parent != b.Parent || a.Name != b.Name ||
			a.Node != b.Node || a.Start != b.Start || a.Dur != b.Dur || a.Err != b.Err ||
			len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("span %d: %+v != %+v", i, a, b)
		}
		for j := range a.Attrs {
			if a.Attrs[j] != b.Attrs[j] {
				t.Fatalf("span %d attr %d: %+v != %+v", i, j, a.Attrs[j], b.Attrs[j])
			}
		}
	}
	// Legacy frame: nothing trailing decodes as no spans.
	if got := ReadSpans(newReader(nil)); got != nil {
		t.Fatal("empty reader should yield nil spans")
	}
}

func TestSpansWireRejectsHostileInput(t *testing.T) {
	cases := [][]byte{
		{0xff, 0xff, 0xff, 0x7f},               // absurd count
		{2, 1, 2, 3},                           // count exceeds buffer
		append([]byte{1}, make([]byte, 30)...), // zero trace/span ids
	}
	for _, buf := range cases {
		r := newReader(buf)
		ReadSpans(r)
		if r.Err() == nil {
			t.Errorf("hostile input %v accepted", buf)
		}
	}
}

func TestBuildTreeAndRender(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 2, Parent: 1, Name: "service.query", Node: "daemon", Start: 1},
		{Trace: 1, ID: 1, Parent: 0, Name: "query", Node: "client", Start: 0},
		{Trace: 1, ID: 3, Parent: 2, Name: "dht.rpc", Node: "daemon", Start: 2},
		{Trace: 1, ID: 4, Parent: 3, Name: "serve.get", Node: "owner", Start: 3},
		{Trace: 1, ID: 3, Parent: 2, Name: "dht.rpc", Node: "daemon", Start: 2}, // duplicate
		{Trace: 1, ID: 9, Parent: 77, Name: "orphan", Node: "x", Start: 9},      // parent evicted
	}
	roots := BuildTree(spans)
	if len(roots) != 2 {
		t.Fatalf("%d roots, want 2 (tree + orphan)", len(roots))
	}
	if roots[0].Span.Name != "query" || roots[1].Span.Name != "orphan" {
		t.Fatalf("root order: %q, %q", roots[0].Span.Name, roots[1].Span.Name)
	}
	q := roots[0]
	if len(q.Children) != 1 || q.Children[0].Span.Name != "service.query" {
		t.Fatalf("query children: %+v", q.Children)
	}
	rpc := q.Children[0].Children[0]
	if rpc.Span.Name != "dht.rpc" || len(rpc.Children) != 1 || rpc.Children[0].Span.Name != "serve.get" {
		t.Fatalf("rpc subtree wrong: %+v", rpc)
	}

	if got := TraceNodes(spans); got != 4 {
		t.Fatalf("TraceNodes = %d, want 4", got)
	}
	if got := TraceDepth(spans); got != 4 {
		t.Fatalf("TraceDepth = %d, want 4", got)
	}

	out := RenderTree(spans)
	for _, want := range []string{"query", "service.query", "dht.rpc", "serve.get", "orphan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
	if RenderTree(nil) != "(no spans)\n" {
		t.Fatalf("empty render = %q", RenderTree(nil))
	}
}

func TestRegistryWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(3)
	reg.Counter("a.count").Inc()
	reg.Gauge("c.gauge", func() int64 { return 42 })
	h := reg.Histogram("d.hist")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Names sort: a.count, b.count, c.gauge, then d.hist expansions.
	if !strings.HasPrefix(lines[0], "a.count 1") || !strings.HasPrefix(lines[1], "b.count 3") ||
		!strings.HasPrefix(lines[2], "c.gauge 42") {
		t.Fatalf("unexpected order/values:\n%s", out)
	}
	for _, want := range []string{"d.hist_count 100", "d.hist_sum 5050", "d.hist_p50", "d.hist_p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Get-or-create returns the same counter.
	if reg.Counter("a.count") != reg.Counter("a.count") {
		t.Fatal("Counter not idempotent")
	}
}
