package service

import (
	"testing"

	"piersearch/internal/piersearch"
)

// FuzzDecodeMsg hammers the protocol decoder with hostile frames: random
// kinds, truncated bodies, absurd length prefixes and counts, unknown
// versions. Decode must never panic, and every accepted message must
// re-encode (version fields are data, not validated here — the server
// refuses them above the codec).
func FuzzDecodeMsg(f *testing.F) {
	f.Add(EncodeOpenQuery(OpenQuery{Version: Version, Text: "madonna prayer", Strategy: piersearch.StrategyJoin, Limit: 50}))
	f.Add(EncodeExplain(OpenQuery{Version: 99, Text: "future version"}))
	f.Add(EncodeBatch([]piersearch.Result{{File: piersearch.File{Name: "a.mp3", Size: 9, Host: "h", Port: 1}}}))
	f.Add(EncodeDone(Done{Explain: "Limit(n=0)"}))
	f.Add(EncodeError(&Error{Code: CodeOverloaded, Msg: "busy"}))
	f.Add(EncodeCancel())
	f.Add(EncodePublish(PublishReq{Version: Version, File: piersearch.File{Name: "x", Size: 1, Host: "h", Port: 2}}))
	f.Add(EncodePublishDone(PublishDone{}))
	f.Add([]byte{MsgBatch, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{MsgOpenQuery, 0x01, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted messages must round-trip through their encoder without
		// panicking; the re-encoded form must decode again.
		var buf []byte
		switch m := msg.(type) {
		case *OpenQuery:
			buf = EncodeOpenQuery(*m)
		case *ExplainQuery:
			buf = EncodeExplain(m.OpenQuery)
		case *Batch:
			buf = EncodeBatch(m.Results)
		case *Done:
			buf = EncodeDone(*m)
		case *Error:
			buf = EncodeError(m)
		case *Cancel:
			buf = EncodeCancel()
		case *ExplainResult:
			buf = EncodeExplainResult(m.Text)
		case *PublishReq:
			buf = EncodePublish(*m)
		case *PublishDone:
			buf = EncodePublishDone(*m)
		default:
			t.Fatalf("Decode returned unknown type %T", msg)
		}
		if _, err := Decode(buf); err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
	})
}
