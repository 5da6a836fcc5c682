// Package lint hosts piervet, a suite of seven custom analyzers that
// machine-check invariants this repo used to enforce only by review
// comment. Each analyzer lives in its own subpackage with a doc.go
// spelling out the invariant, analysistest-style fixtures under
// testdata/src, and a test driven by the shared linttest harness.
//
// The suite is stdlib-only: the container has no module cache or
// network, so internal/lint/analysis re-creates the small slice of
// golang.org/x/tools/go/analysis that the analyzers need (Analyzer,
// Pass, Diagnostic), and internal/lint/load type-checks packages from
// source on top of `go list -e -json -deps`. cmd/piervet wires all
// seven into one multichecker; CI runs `go run ./cmd/piervet ./...` as
// a required job beside gofmt, vet, and staticcheck.
//
// # The analyzers
//
// ctxflow (origin: PR 3, context threading). context.Background() and
// context.TODO() are banned inside internal/ packages: a fresh root
// context detaches the call from cancellation, deadlines, and the
// telemetry span carried by the caller's ctx. There is no wrapper
// exemption: a genuine root (a node's lifetime, a connection's) carries
// a reasoned allow directive.
//
// determinism (origin: PR 6, virtual-time scale harness). The replay
// harness promises bit-identical runs for a given seed, so
// internal/scale, internal/simnet (home of simnet.Clock),
// internal/gnutella and internal/codec may not read the wall clock
// (time.Now, time.Sleep, timers) or the global math/rand source, and
// encode paths anywhere may not iterate a map while building wire
// bytes — map order would leak into encodings.
//
// codecguard (origin: PR 2, hostile-input codec). Hot-path packages
// (codec, wire, pier, dht, service, store, telemetry, hotcache) must
// not import encoding/gob or encoding/json, and a length read from
// the wire (Reader.Uvarint/Varint, binary varints) must be bounds-
// checked before it sizes a make(). Reader.Count/View/Bytes/String
// are the guarded alternatives.
//
// locksafe (origin: PR 7, sharded hot cache). No blocking call (RPC,
// dial, send/recv, Wait, Sleep) while a sync.Mutex/RWMutex is held —
// a stalled peer must never wedge a shard. Also extends vet's
// copylocks: maps and channels whose element type contains a lock,
// and sends that copy a lock by value.
//
// spanhygiene (origin: PR 9, telemetry). Every span returned by
// telemetry.StartSpan/StartRoot/StartRemote/StartHandler must reach
// Finish or FinishErr on every return path, including error returns.
// defer sp.Finish() is the canonical form; discarding the span with _
// is reported.
//
// metricnames (origin: PR 9, telemetry). Registry.Counter/Gauge/
// Histogram names must be compile-time constants: a name built at
// call time mints unbounded registry entries.
//
// unusedexport (origin: ROADMAP 9(h), dead exports). Nothing exported
// from internal/ may lack a non-test use in the module: packages there
// cannot be imported from outside, so an export only tests call is dead
// code that its tests keep alive. Methods that satisfy an interface of
// the module or of a package it imports are exempt, and so are packages
// named *test. Its verdict on one package needs the whole module, so it
// is not a per-package Analyzer: piervet calls unusedexport.Check once
// over every loaded package, with the module's uses loaded from ./...
// whatever the patterns. A helper only its own package's tests need
// belongs in export_test.go.
//
// # Suppressing a finding
//
// Every analyzer honors the allow directive:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or the line above it. The reason is
// mandatory — a bare //lint:allow ctxflow is inert and the finding
// still fires. Suppressions are grep-able, per-line, and carry their
// own justification, so the invariant stays legible even where it is
// waived.
package lint
