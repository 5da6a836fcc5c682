package wire

import (
	"testing"
	"time"

	"piersearch/internal/dht"
)

// FuzzDecodeRequest hammers the request decoder with mutated frames. The
// decoder must never panic and must reject anything that does not
// round-trip: a frame either decodes to a request whose re-encoding
// decodes identically, or it errors.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []*dht.Request{
		{Kind: dht.RPCPing},
		{Kind: dht.RPCFindNode, Target: dht.StringID("t")},
		{Kind: dht.RPCFindNode, Target: dht.StringID("t"), Want: 6},
		{Kind: dht.RPCFindValue, Target: dht.StringID("t"), Want: 300, TraceID: 1, SpanID: 2},
		{
			Kind:   dht.RPCStore,
			From:   dht.NodeInfo{ID: dht.StringID("from"), Addr: "1.2.3.4:5"},
			Target: dht.StringID("target"),
			Value: dht.StoredValue{
				Data:      []byte("payload"),
				Publisher: dht.StringID("pub"),
				StoredAt:  5 * time.Second,
				TTL:       time.Hour,
			},
		},
		{Kind: dht.RPCApp, App: "pier.chain", Data: []byte{1, 2, 3}},
		{
			Kind: dht.RPCProvide,
			From: dht.NodeInfo{ID: dht.StringID("holder"), Addr: "h:1"},
			Records: []dht.ProviderRecord{
				{Key: dht.StringID("k1"), Data: []byte("v1"), Publisher: dht.StringID("p1"), TTL: time.Minute},
				{Key: dht.StringID("k2"), Data: []byte("v2"), Publisher: dht.StringID("p2")},
			},
		},
	}
	for _, req := range seeds {
		f.Add(EncodeRequest(req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		again, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if again.Kind != req.Kind || again.From != req.From || again.Target != req.Target ||
			again.App != req.App || string(again.Data) != string(req.Data) ||
			len(again.Records) != len(req.Records) || again.Want != req.Want {
			t.Fatalf("round-trip drift:\n  first  %+v\n  second %+v", req, again)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest.
func FuzzDecodeResponse(f *testing.F) {
	seeds := []*dht.Response{
		{OK: true},
		{
			From: dht.NodeInfo{ID: dht.StringID("srv"), Addr: "host:1"},
			Closest: []dht.NodeInfo{
				{ID: dht.StringID("a"), Addr: "a:1"},
				{ID: dht.StringID("b"), Addr: "b:2"},
			},
			Values: []dht.StoredValue{
				{Data: []byte("v1"), Publisher: dht.StringID("p1")},
				{Data: []byte("v2"), Publisher: dht.StringID("p2"), TTL: time.Minute},
			},
			Data: []byte("reply"),
			OK:   true,
		},
	}
	for _, resp := range seeds {
		f.Add(EncodeResponse(resp))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		again, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if again.OK != resp.OK || again.From != resp.From ||
			len(again.Closest) != len(resp.Closest) || len(again.Values) != len(resp.Values) ||
			string(again.Data) != string(resp.Data) {
			t.Fatalf("round-trip drift:\n  first  %+v\n  second %+v", resp, again)
		}
	})
}
