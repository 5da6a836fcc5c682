// Package telemetry is the observability plane: distributed query
// tracing and a lock-cheap metrics registry shared by dht, wire,
// service, store, hotcache and both daemons, plus the one Histogram
// type that the registry and the scale harness both record into.
// Logging is the standard library's log/slog. It has no dependencies
// beyond internal/codec and the standard library so every layer of the
// stack can import it.
//
// # Tracing model
//
// A trace is identified by a 64-bit TraceID minted once per query (at
// service.OpenQuery or piersearch.QueryContext). Every unit of work —
// a DHT RPC issued, an RPC served, a plan operator, a service stream,
// a store commit or compaction batch — records a Span carrying its own
// 64-bit SpanID and the SpanID of its parent. Spans are appended to a
// bounded per-node ring (oldest evicted first) and piggy-backed on RPC
// responses, so by the time a query's Done frame reaches the client
// the client-side Tracer holds spans from every node the query
// touched. BuildTree/RenderTree assemble them into the tree printed
// next to plan.Explain output.
//
// Trace context travels in a context.Context value. When no span is in
// the context (tracing disabled or unsampled), StartSpan returns the
// context unchanged and a nil *ActiveSpan whose methods are no-ops:
// the disabled path performs zero allocations, which the alloc-pinning
// tests in this package enforce.
//
// Span IDs are minted deterministically: each Tracer derives a 64-bit
// base from its node name (FNV-1a) and mixes it with a per-tracer
// sequence counter (SplitMix64 finalizer). Under the virtual-time
// scale harness — where node names, scheduling order and clocks are
// all deterministic — two runs of the same replay therefore produce
// byte-identical sampled traces in BENCH_scale.json.
//
// # Span wire encoding
//
// Spans and trace context cross the network in two places, both
// appended as *trailing* blocks after the pre-existing payload so
// legacy frames (with nothing left in the buffer) still decode:
//
// Trace context (request direction), AppendTraceContext:
//
//	flag   byte        0 = untraced (nothing follows), 1 = traced
//	trace  8 bytes     big-endian TraceID   (present iff flag == 1)
//	span   8 bytes     big-endian SpanID    (present iff flag == 1)
//
// Span list (response direction), AppendSpans:
//
//	count  uvarint     number of spans (decoder caps at MaxWireSpans)
//	per span:
//	  trace   8 bytes big-endian
//	  id      8 bytes big-endian
//	  parent  8 bytes big-endian
//	  start   varint  nanoseconds on the recording node's clock
//	  dur     varint  nanoseconds
//	  name    uvarint length + bytes
//	  node    uvarint length + bytes
//	  err     uvarint length + bytes (empty = ok)
//	  nattrs  uvarint (decoder caps at MaxSpanAttrs)
//	  per attr: key uvarint length + bytes, val uvarint length + bytes
//
// ReadSpans validates all counts against the remaining buffer
// (codec.Reader.Count) and rejects hostile lengths; FuzzDecodeSpans
// exercises the decoder with adversarial input in CI.
//
// # Metric naming conventions
//
// Metric names are dot-separated paths: "<package>.<subsystem>.<what>"
// with an optional unit suffix ("_bytes", "_ns"). Counters count
// events or totals since process start, gauges sample current state at
// scrape time, histograms export _count, _sum and p50/p95/p99
// estimates. Label-shaped variation is encoded in the name (e.g.
// "dht.rpc.in.find_node", "service.errors.overloaded") so the text
// exposition stays a flat sorted "name value" list, greppable and
// jq-free. The full name table lives in the README's Observability
// section.
//
// # Debug endpoints
//
// Handler serves the plane over HTTP (daemon flag -debug-addr):
// /metrics (text exposition), /traces (recent trace IDs),
// /traces/<id> (rendered tree), /healthz, and /debug/pprof/*.
package telemetry
