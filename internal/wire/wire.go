// Package wire provides the real-network transport for the DHT: a compact
// binary codec for the Kademlia RPCs (built on the shared primitives in
// internal/codec) and a length-prefixed TCP transport. The paper's
// deployment ran PIER over wide-area PlanetLab links; this package lets
// the same Node/Engine/PIERSearch code run over TCP sockets
// (cmd/piersearch, cmd/deploy) instead of the in-process simulated network.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/telemetry"
)

// MaxFrame bounds a single message (16 MiB), protecting against corrupt
// or hostile length prefixes.
const MaxFrame = 16 << 20

// coalesceFrameLimit bounds the payload size WriteFrame copies into one
// pooled buffer: below it the copy is cheaper than a second
// syscall/segment; above it (big posting sets, value transfers) the copy
// would cost a fresh multi-MB allocation, so header and payload go out as
// two writes.
const coalesceFrameLimit = 4 << 10

// WriteFrame writes one length-prefixed frame. Small frames are assembled
// in a pooled scratch buffer and written with a single Write (one syscall,
// one TCP segment); large frames are written header-then-payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if len(payload) > coalesceFrameLimit {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	}
	buf := append(codec.GetBuf(), hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	codec.PutBuf(buf)
	return err
}

// ReadFrame reads one length-prefixed frame into a buffer drawn from the
// shared codec pool. Callers that fully decode the frame should hand the
// buffer back with codec.PutBuf (the request/response decoders copy every
// field they keep); retaining it instead is also safe, it just forgoes
// reuse.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := codec.GetBuf()
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	} else {
		payload = payload[:n]
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		codec.PutBuf(payload)
		return nil, err
	}
	return payload, nil
}

// --- codec -----------------------------------------------------------------

// The RPC formats reuse the shared append/Reader primitives and the
// identity wire forms on dht.ID/dht.NodeInfo; only the stored-value
// composite lives here.

func appendValue(dst []byte, v dht.StoredValue) []byte {
	dst = codec.AppendBytes(dst, v.Data)
	dst = v.Publisher.AppendWire(dst)
	dst = codec.AppendVarint(dst, int64(v.StoredAt))
	return codec.AppendVarint(dst, int64(v.TTL))
}

func readStored(r *codec.Reader) dht.StoredValue {
	return dht.StoredValue{
		Data:      r.Bytes(),
		Publisher: dht.ReadID(r),
		StoredAt:  time.Duration(r.Varint()),
		TTL:       time.Duration(r.Varint()),
	}
}

// EncodeRequest serialises a DHT request.
func EncodeRequest(req *dht.Request) []byte {
	buf := make([]byte, 0, 64+len(req.Data)+len(req.Value.Data))
	buf = append(buf, byte(req.Kind))
	buf = req.From.AppendWire(buf)
	buf = req.Target.AppendWire(buf)
	hasValue := byte(0)
	if len(req.Value.Data) > 0 || !req.Value.Publisher.IsZero() {
		hasValue = 1
	}
	buf = append(buf, hasValue)
	if hasValue == 1 {
		buf = appendValue(buf, req.Value)
	}
	buf = codec.AppendString(buf, req.App)
	buf = codec.AppendBytes(buf, req.Data)
	// Provider-record batch (RPCProvide's replication/handoff payload).
	// Always present — an empty batch is two bytes — so the frame layout
	// stays position-independent of the request kind.
	buf = dht.AppendProviderRecords(buf, req.Records)
	// Trailing versioned trace-context block: one flag byte when
	// untraced, so the hot path pays no allocation and peers that
	// predate tracing still parse (the decoder treats an exhausted
	// buffer as "no trace").
	buf = telemetry.AppendTraceContext(buf, req.TraceID, req.SpanID)
	// Trailing reply width, present only when non-zero: a K-wide request
	// encodes exactly as it did before the field existed, and a frame
	// that ends at the trace block decodes as Want 0, "K".
	if req.Want != 0 {
		buf = codec.AppendUvarint(buf, uint64(req.Want))
	}
	return buf
}

// maxWant bounds a decoded Request.Want; no routing table holds more
// contacts than this, so a larger value can only be corrupt.
const maxWant = 1 << 16

// DecodeRequest parses a DHT request. Every retained field is copied out
// of buf, so the caller may recycle buf afterwards.
func DecodeRequest(buf []byte) (*dht.Request, error) {
	r := codec.NewReader(buf)
	req := &dht.Request{
		Kind:   dht.RPCKind(r.Byte()),
		From:   dht.ReadNodeInfo(r),
		Target: dht.ReadID(r),
	}
	if r.Byte() == 1 {
		req.Value = readStored(r)
	}
	req.App = r.String()
	req.Data = r.Bytes()
	req.Records = dht.ReadProviderRecords(r)
	req.TraceID, req.SpanID = telemetry.ReadTraceContext(r)
	if r.Len() > 0 {
		// Present means non-zero: an encoder never writes Want 0, so a
		// trailing zero is garbage, not a second spelling of "K".
		if w := r.Uvarint(); w == 0 || w > maxWant {
			r.Fail("reply width out of range")
		} else {
			req.Want = int(w)
		}
	}
	return req, r.Finish()
}

// EncodeResponse serialises a DHT response.
func EncodeResponse(resp *dht.Response) []byte {
	buf := make([]byte, 0, 64+len(resp.Data))
	flags := byte(0)
	if resp.OK {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = resp.From.AppendWire(buf)
	buf = codec.AppendUvarint(buf, uint64(len(resp.Closest)))
	for _, c := range resp.Closest {
		buf = c.AppendWire(buf)
	}
	buf = codec.AppendUvarint(buf, uint64(len(resp.Values)))
	for _, v := range resp.Values {
		buf = appendValue(buf, v)
	}
	buf = codec.AppendBytes(buf, resp.Data)
	// Trailing span block: piggy-backed handler spans for traced
	// requests, one varint zero otherwise (legacy peers simply omit it).
	return telemetry.AppendSpans(buf, resp.Spans)
}

// DecodeResponse parses a DHT response. Every retained field is copied out
// of buf, so the caller may recycle buf afterwards.
func DecodeResponse(buf []byte) (*dht.Response, error) {
	r := codec.NewReader(buf)
	resp := &dht.Response{}
	flags := r.Byte()
	resp.OK = flags&1 != 0
	resp.From = dht.ReadNodeInfo(r)
	nClosest := r.Count()
	if nClosest > 1<<16 {
		r.Fail("unreasonable contact count")
	}
	for i := 0; i < nClosest && r.Err() == nil; i++ {
		resp.Closest = append(resp.Closest, dht.ReadNodeInfo(r))
	}
	nValues := r.Count()
	for i := 0; i < nValues && r.Err() == nil; i++ {
		resp.Values = append(resp.Values, readStored(r))
	}
	resp.Data = r.Bytes()
	resp.Spans = telemetry.ReadSpans(r)
	return resp, r.Finish()
}
