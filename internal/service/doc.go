// Package service is the network query service: PIER's public API as a
// versioned, streaming wire protocol. A daemon (Server) executes compiled
// query plans on the node that receives them and pushes result batches
// back over multiplexed streams; a Client submits queries from any
// process — joining the DHT is no longer required to search it, which is
// the paper's actual deployment shape (queries are handed to the network,
// not assembled by a library caller in-process).
//
// # Transport
//
// The protocol runs over wire.Mux streams: one TCP connection per
// client carries any number of concurrent queries, each on its own
// stream with credit-based flow control (the daemon can have at most
// window-many unconsumed batches in flight, so a slow reader
// backpressures the executor instead of ballooning the daemon's heap).
// A Send queues its frame; the session's flusher writes what has
// accumulated, so the messages of one answer — a handful of batches, Done,
// the close and reset releasing the stream — share a socket write or two
// (see wire/mux.go for what Send returning nil and Close guarantee).
//
// # Messages
//
// Every stream payload is one message: a kind byte followed by a body in
// the internal/codec primitives. The stream's opening payload carries the
// request; the daemon answers with response messages on the same stream.
//
//	OpenQuery     version | text | strategy | limit | trace context
//	Batch         uvarint n | n x Item tuple (pier.Tuple wire form)
//	Done          SearchStats | explain string
//	Error         uvarint code | message
//	Cancel        (empty)
//	Explain       version | text | strategy | limit | trace context
//	ExplainResult explain string
//	Publish       version | name | size | host | port | mode
//	PublishDone   PublishStats
//
// A query stream's life: the client opens the stream with OpenQuery; the
// daemon admits it (or answers Error/overloaded), executes the plan, and
// pushes Batch frames as results materialize — the first result ships
// immediately so time-to-first-result tracks the match phase, not the
// full drain — then Done with the final stats and the executed plan's
// cost profile. The client cancels by sending Cancel or resetting the
// stream; either way the daemon's query context is canceled, in-flight
// DHT round-trips abort, and the admission slot frees.
//
// Version negotiation is per-request: every request message leads with
// the protocol version, and a daemon that does not speak it answers
// Error/unsupported-version rather than guessing. The version byte's
// position — immediately after the kind byte — is a protocol invariant
// across all versions, which is what lets a daemon identify a request
// from a version whose body layout it cannot parse.
package service
