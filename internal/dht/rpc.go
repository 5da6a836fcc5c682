package dht

import (
	"context"

	"piersearch/internal/codec"
	"piersearch/internal/telemetry"
)

// RPCKind enumerates the Kademlia RPCs plus the application-message channel
// PIER uses to route query plans and tuple batches to key owners.
type RPCKind uint8

// The RPC vocabulary.
const (
	RPCPing RPCKind = iota
	RPCFindNode
	RPCFindValue
	RPCStore
	RPCApp
	// RPCProvide carries a batch of provider records: republish and
	// join-handoff push replicated values to their k closest holders with
	// one message per destination instead of one STORE per value.
	RPCProvide
)

// String returns the RPC name, used as a traffic-accounting kind.
func (k RPCKind) String() string {
	switch k {
	case RPCPing:
		return "ping"
	case RPCFindNode:
		return "find_node"
	case RPCFindValue:
		return "find_value"
	case RPCStore:
		return "store"
	case RPCApp:
		return "app"
	case RPCProvide:
		return "provide"
	default:
		return "unknown"
	}
}

// Request is a DHT RPC request.
type Request struct {
	Kind    RPCKind
	From    NodeInfo
	Target  ID               // FindNode / FindValue target, Store key
	Value   StoredValue      // Store payload
	App     string           // App handler dispatch key
	Data    []byte           // App payload
	Records []ProviderRecord // Provide payload

	// Want is how many contacts a FindNode/FindValue caller will read from
	// the reply; 0 means K. A lookup that converges on fewer than K sets
	// it (Node.iterate), so the responder does not ship contacts the
	// walker would discard.
	Want int

	// Trace context: zero TraceID means untraced. Stamped by the caller
	// (Node.callCtx) from the request context; carried as a versioned
	// trailing block by the TCP transport and as plain struct fields by
	// the in-process transports.
	TraceID telemetry.TraceID
	SpanID  telemetry.SpanID
}

// Response is a DHT RPC response.
type Response struct {
	From    NodeInfo
	Closest []NodeInfo    // FindNode / FindValue: closer contacts
	Values  []StoredValue // FindValue: stored values, if the key is held here
	Data    []byte        // App reply payload
	OK      bool

	// Spans piggy-backs the handler-side span records for the request's
	// trace back to the caller, which absorbs them into its own ring.
	// Empty on untraced requests.
	Spans []telemetry.Span
}

// nodeInfoWireBytes approximates the serialized size of one contact:
// 20-byte ID + address string + its one-byte length.
func nodeInfoWireBytes(n NodeInfo) int { return IDBytes + len(n.Addr) + 1 }

// rpcHeaderBytes approximates fixed per-message overhead: the 4-byte frame
// length prefix plus the kind/flag bytes and empty-field lengths every
// message carries.
const rpcHeaderBytes = 10

// WireSize estimates the request's size on the wire, frame prefix
// included. Every byte figure the stack reports, over TCP too, is a sum of
// these estimates, not a count of socket bytes; package wire's tests hold
// them within 10 % of the encoding.
func (r *Request) WireSize() int {
	n := rpcHeaderBytes + nodeInfoWireBytes(r.From) + IDBytes
	n += len(r.Value.Data)
	if len(r.Value.Data) > 0 {
		n += IDBytes + 12 // publisher + timestamps
	}
	n += len(r.App) + len(r.Data)
	for _, rec := range r.Records {
		n += 2*IDBytes + len(rec.Data) + 8
	}
	n++ // trace flag byte
	if r.TraceID != 0 {
		n += 16
	}
	if r.Want != 0 {
		n += codec.UvarintLen(uint64(r.Want))
	}
	return n
}

// WireSize estimates the serialized response size in bytes.
func (r *Response) WireSize() int {
	n := rpcHeaderBytes + nodeInfoWireBytes(r.From)
	for _, c := range r.Closest {
		n += nodeInfoWireBytes(c)
	}
	for _, v := range r.Values {
		n += len(v.Data) + IDBytes + 12
	}
	n += len(r.Data)
	for i := range r.Spans {
		s := &r.Spans[i]
		n += 24 + 10 + len(s.Name) + len(s.Node) + len(s.Err)
		for _, a := range s.Attrs {
			n += len(a.Key) + len(a.Val) + 2
		}
	}
	return n
}

// Transport delivers RPCs to remote nodes. Implementations: LocalNetwork
// (in-process, simulated accounting, optional wall-clock link latency),
// scale.Net (virtual-time links) and the TCP transport in package wire.
type Transport interface {
	// CallContext delivers req to the node at to and returns its response.
	// A nil response with a non-nil error means the node is unreachable.
	// A context canceled at the query layer aborts the in-flight dial or
	// round-trip instead of waiting it out: once ctx is done the returned
	// error wraps ctx.Err().
	CallContext(ctx context.Context, to NodeInfo, req *Request) (*Response, error)
}
