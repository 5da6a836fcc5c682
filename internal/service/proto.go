package service

import (
	"fmt"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/telemetry"
)

// Version is the protocol version this build speaks. Requests carrying
// another version are refused with CodeVersion.
//
// Version 2 added the hot-key tier counters (CacheHits, Coalesced,
// FanoutReads) to the Done stats and the RetryAfterMs backoff hint to
// MsgError frames.
//
// Version 3 added distributed tracing: OpenQuery carries the client's
// trace context (trace + parent span IDs, zero when untraced) and Done
// carries the span records the daemon collected for the query.
//
// Version 4 dropped OpenQuery's workers field. It let any client set the
// width of the daemon's item-fetch pool, bounded only by the match
// count; the daemon now always runs at its engine's pier.Config.Workers.
const Version = 4

// Message kinds: the first byte of every stream payload.
const (
	// MsgOpenQuery starts a streaming query (client → daemon).
	MsgOpenQuery byte = iota + 1
	// MsgBatch carries one batch of results (daemon → client).
	MsgBatch
	// MsgDone ends a successful stream with final stats (daemon → client).
	MsgDone
	// MsgError reports a typed failure and ends the stream (daemon → client).
	MsgError
	// MsgCancel stops an in-flight query (client → daemon).
	MsgCancel
	// MsgExplain asks for the compiled plan without executing it.
	MsgExplain
	// MsgExplainResult answers MsgExplain.
	MsgExplainResult
	// MsgPublish indexes one file through the daemon.
	MsgPublish
	// MsgPublishDone answers MsgPublish.
	MsgPublishDone
)

// Code is a typed protocol error code.
type Code int

// Error codes.
const (
	// CodeBadRequest: the request was malformed or unanswerable (e.g. no
	// indexable keywords).
	CodeBadRequest Code = iota + 1
	// CodeVersion: the daemon does not speak the request's protocol version.
	CodeVersion
	// CodeOverloaded: admission control refused the query; retry later or
	// elsewhere.
	CodeOverloaded
	// CodeCanceled: the query's context ended before the stream finished.
	CodeCanceled
	// CodeInternal: execution failed on the daemon.
	CodeInternal
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeVersion:
		return "unsupported-version"
	case CodeOverloaded:
		return "overloaded"
	case CodeCanceled:
		return "canceled"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code-%d", int(c))
	}
}

// Error is a typed protocol failure, as shipped in MsgError frames.
type Error struct {
	Code Code
	Msg  string
	// RetryAfterMs is the daemon's backoff hint in milliseconds: with
	// CodeOverloaded it tells the client how long to wait before the next
	// attempt can be admitted. Zero means no hint.
	RetryAfterMs int
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("service: %s: %s", e.Code, e.Msg) }

// Is matches two protocol errors by code, so
// errors.Is(err, &service.Error{Code: CodeOverloaded}) works.
//
//lint:allow unusedexport errors.Is calls it
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// OpenQuery is the body of MsgOpenQuery and MsgExplain.
type OpenQuery struct {
	Version  byte
	Text     string
	Strategy piersearch.Strategy
	Limit    int

	// TraceID/SpanID carry the client's trace context so the daemon's
	// spans (and those of the owners it probes) parent under the
	// client's query span. Zero means the query is untraced.
	TraceID telemetry.TraceID
	SpanID  telemetry.SpanID
}

// PublishReq is the body of MsgPublish.
type PublishReq struct {
	Version byte
	File    piersearch.File
	Mode    piersearch.PublishMode
}

// Batch is the body of MsgBatch: results as Item tuples.
type Batch struct {
	Results []piersearch.Result
}

// Done is the body of MsgDone: the query's final cost figures plus the
// executed plan's per-operator cost profile and, for traced queries,
// the span records the daemon collected (its own plus those absorbed
// from the owners it probed).
type Done struct {
	Stats   piersearch.SearchStats
	Explain string
	Spans   []telemetry.Span
}

// ExplainResult is the body of MsgExplainResult.
type ExplainResult struct {
	Text string
}

// PublishDone is the body of MsgPublishDone.
type PublishDone struct {
	Stats piersearch.PublishStats
}

// Cancel is the body of MsgCancel.
type Cancel struct{}

// maxMsgItems bounds decoded collection sizes beyond the generic
// count-vs-buffer check, keeping hostile frames from shaping huge batches.
const maxMsgItems = 1 << 16

// --- encoders ---------------------------------------------------------------

func appendQuery(dst []byte, kind byte, q OpenQuery) []byte {
	dst = append(dst, kind, q.Version)
	dst = codec.AppendString(dst, q.Text)
	dst = append(dst, byte(q.Strategy))
	dst = codec.AppendUvarint(dst, uint64(q.Limit))
	return telemetry.AppendTraceContext(dst, q.TraceID, q.SpanID)
}

// EncodeOpenQuery frames q as a MsgOpenQuery payload.
func EncodeOpenQuery(q OpenQuery) []byte { return appendQuery(nil, MsgOpenQuery, q) }

// EncodeExplain frames q as a MsgExplain payload.
func EncodeExplain(q OpenQuery) []byte { return appendQuery(nil, MsgExplain, q) }

// EncodeCancel frames a MsgCancel payload.
func EncodeCancel() []byte { return []byte{MsgCancel} }

// EncodeBatch frames results as a MsgBatch payload: each result travels as
// its Item tuple, the relation's own wire form, under the FileID the
// result carries — the ID is not re-hashed from the fields. For an Item
// whose stored ID is the hash of its fields the bytes are those of
// File.ItemTuple(); an Item stored under any other ID ships that stored
// ID, which is what the daemon read, not a recomputed one.
func EncodeBatch(results []piersearch.Result) []byte {
	dst := append(codec.GetBuf(), MsgBatch)
	dst = codec.AppendUvarint(dst, uint64(len(results)))
	for _, r := range results {
		dst = r.ItemTuple().Encode(dst)
	}
	out := append([]byte(nil), dst...)
	codec.PutBuf(dst)
	return out
}

func appendSearchStats(dst []byte, s piersearch.SearchStats) []byte {
	dst = append(dst, byte(s.Strategy))
	for _, v := range []int{s.Keywords, s.Matches, s.Messages, s.Bytes, s.Hops, s.PostingShipped, s.MatchBytes, s.MaxInFlight, s.CacheHits, s.Coalesced, s.FanoutReads} {
		dst = codec.AppendVarint(dst, int64(v))
	}
	return codec.AppendVarint(dst, int64(s.Wall))
}

func readSearchStats(r *codec.Reader) piersearch.SearchStats {
	var s piersearch.SearchStats
	s.Strategy = piersearch.Strategy(r.Byte())
	for _, p := range []*int{&s.Keywords, &s.Matches, &s.Messages, &s.Bytes, &s.Hops, &s.PostingShipped, &s.MatchBytes, &s.MaxInFlight, &s.CacheHits, &s.Coalesced, &s.FanoutReads} {
		*p = int(r.Varint())
	}
	s.Wall = time.Duration(r.Varint())
	return s
}

// EncodeDone frames the final stats, executed-plan profile and trace
// spans.
func EncodeDone(d Done) []byte {
	dst := appendSearchStats([]byte{MsgDone}, d.Stats)
	dst = codec.AppendString(dst, d.Explain)
	return telemetry.AppendSpans(dst, d.Spans)
}

// EncodeError frames a typed error.
func EncodeError(e *Error) []byte {
	dst := codec.AppendUvarint([]byte{MsgError}, uint64(e.Code))
	dst = codec.AppendString(dst, e.Msg)
	return codec.AppendUvarint(dst, uint64(e.RetryAfterMs))
}

// EncodeExplainResult frames an explain answer.
func EncodeExplainResult(text string) []byte {
	return codec.AppendString([]byte{MsgExplainResult}, text)
}

// EncodePublish frames a publish request.
func EncodePublish(p PublishReq) []byte {
	dst := []byte{MsgPublish, p.Version}
	dst = codec.AppendString(dst, p.File.Name)
	dst = codec.AppendVarint(dst, p.File.Size)
	dst = codec.AppendString(dst, p.File.Host)
	dst = codec.AppendUvarint(dst, uint64(p.File.Port))
	return append(dst, byte(p.Mode))
}

// EncodePublishDone frames a publish acknowledgment.
func EncodePublishDone(d PublishDone) []byte {
	dst := []byte{MsgPublishDone}
	for _, v := range []int{d.Stats.Tuples, d.Stats.Keywords, d.Stats.Messages, d.Stats.Bytes, d.Stats.MaxInFlight} {
		dst = codec.AppendVarint(dst, int64(v))
	}
	return codec.AppendVarint(dst, int64(d.Stats.Wall))
}

// --- decoder ----------------------------------------------------------------

// Decode parses one protocol message, returning one of the body types
// (*OpenQuery with kind distinguishing query vs explain is avoided:
// MsgExplain decodes to *ExplainQuery). Hostile input — truncated frames,
// absurd lengths, unknown kinds — comes back as an error, never a panic
// or an outsized allocation.
func Decode(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("service: empty message")
	}
	kind, body := payload[0], payload[1:]
	r := codec.NewReader(body)
	switch kind {
	case MsgOpenQuery, MsgExplain:
		q := OpenQuery{Version: r.Byte(), Text: r.String(), Strategy: piersearch.Strategy(r.Byte())}
		q.Limit = int(r.Uvarint())
		q.TraceID, q.SpanID = telemetry.ReadTraceContext(r)
		if err := r.Finish(); err != nil {
			return nil, err
		}
		if kind == MsgExplain {
			return &ExplainQuery{q}, nil
		}
		return &q, nil

	case MsgBatch:
		n := r.Count()
		if n > maxMsgItems {
			r.Fail("unreasonable batch size")
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		b := &Batch{Results: make([]piersearch.Result, 0, min(n, 256))}
		rest := r.Take(r.Len())
		for i := 0; i < n; i++ {
			t, used, err := pier.DecodeTuple(rest)
			if err != nil {
				return nil, fmt.Errorf("service: batch tuple %d: %w", i, err)
			}
			rest = rest[used:]
			file, id, err := piersearch.FileFromItemTuple(t)
			if err != nil {
				return nil, fmt.Errorf("service: batch tuple %d: %w", i, err)
			}
			b.Results = append(b.Results, piersearch.Result{File: file, FileID: id})
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("service: trailing batch bytes")
		}
		return b, nil

	case MsgDone:
		d := &Done{Stats: readSearchStats(r)}
		d.Explain = r.String()
		d.Spans = telemetry.ReadSpans(r)
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return d, nil

	case MsgError:
		e := &Error{Code: Code(r.Uvarint())}
		e.Msg = r.String()
		e.RetryAfterMs = int(r.Uvarint())
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return e, nil

	case MsgCancel:
		if len(body) != 0 {
			return nil, fmt.Errorf("service: cancel carries a body")
		}
		return &Cancel{}, nil

	case MsgExplainResult:
		res := &ExplainResult{Text: r.String()}
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return res, nil

	case MsgPublish:
		p := &PublishReq{Version: r.Byte()}
		p.File.Name = r.String()
		p.File.Size = r.Varint()
		p.File.Host = r.String()
		p.File.Port = int(r.Uvarint())
		p.Mode = piersearch.PublishMode(r.Byte())
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return p, nil

	case MsgPublishDone:
		d := &PublishDone{}
		for _, p := range []*int{&d.Stats.Tuples, &d.Stats.Keywords, &d.Stats.Messages, &d.Stats.Bytes, &d.Stats.MaxInFlight} {
			*p = int(r.Varint())
		}
		d.Stats.Wall = time.Duration(r.Varint())
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return d, nil

	default:
		return nil, fmt.Errorf("service: unknown message kind %d", kind)
	}
}

// ExplainQuery is MsgExplain's decoded form: an OpenQuery asking for the
// plan instead of its execution.
type ExplainQuery struct {
	OpenQuery
}
