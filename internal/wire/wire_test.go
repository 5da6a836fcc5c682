package wire

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("frame = %q", got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversize write accepted")
	}
	// A hostile length prefix must be rejected without allocating.
	bad := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Error("hostile length prefix accepted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("full payload"))
	data := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	req := &dht.Request{
		Kind:   dht.RPCStore,
		From:   dht.NodeInfo{ID: dht.StringID("from"), Addr: "1.2.3.4:5"},
		Target: dht.StringID("target"),
		Value: dht.StoredValue{
			Data:      []byte("payload"),
			Publisher: dht.StringID("pub"),
			StoredAt:  5 * time.Second,
			TTL:       time.Hour,
		},
		App:  "pier.chain",
		Data: []byte{1, 2, 3},
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != req.Kind || got.From != req.From || got.Target != req.Target {
		t.Errorf("header mismatch: %+v", got)
	}
	if string(got.Value.Data) != "payload" || got.Value.TTL != time.Hour || got.Value.StoredAt != 5*time.Second {
		t.Errorf("value mismatch: %+v", got.Value)
	}
	if got.App != req.App || string(got.Data) != string(req.Data) {
		t.Errorf("app payload mismatch")
	}
}

func TestRequestCodecNoValue(t *testing.T) {
	req := &dht.Request{Kind: dht.RPCFindNode, Target: dht.StringID("k")}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Value.Data) != 0 || !got.Value.Publisher.IsZero() {
		t.Errorf("phantom value decoded: %+v", got.Value)
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := &dht.Response{
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
	}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || got.From != resp.From || len(got.Closest) != 2 || len(got.Values) != 2 {
		t.Errorf("response mismatch: %+v", got)
	}
	if got.Closest[1].Addr != "b:2" || string(got.Values[0].Data) != "v1" {
		t.Errorf("content mismatch")
	}
	if string(got.Data) != "reply" {
		t.Errorf("data mismatch")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	prop := func(app string, data, value []byte, ok bool) bool {
		req := &dht.Request{
			Kind: dht.RPCApp,
			From: dht.NodeInfo{ID: dht.StringID(string(data)), Addr: app},
			App:  app,
			Data: data,
		}
		if len(value) > 0 {
			req.Value = dht.StoredValue{Data: value, Publisher: dht.StringID(string(value))}
		}
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			return false
		}
		return got.App == app && string(got.Data) == string(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, buf := range [][]byte{nil, {1}, {0, 1, 2}, bytes.Repeat([]byte{0xfe}, 30)} {
		if _, err := DecodeRequest(buf); err == nil {
			t.Errorf("garbage request %v accepted", buf)
		}
		if _, err := DecodeResponse(buf); err == nil {
			t.Errorf("garbage response %v accepted", buf)
		}
	}
	// Trailing bytes must be rejected. A trailing Want is present only
	// when non-zero, so a zero there is garbage, and no table is wide
	// enough to justify one past 1<<16.
	good := EncodeRequest(&dht.Request{Kind: dht.RPCPing})
	for _, tail := range [][]byte{
		{0},
		codec.AppendUvarint(nil, 1<<16+1),
		codec.AppendUvarint(nil, 1<<40),
		{0x80}, // truncated uvarint
		{6, 6}, // a field after Want
	} {
		if _, err := DecodeRequest(append(append([]byte{}, good...), tail...)); err == nil {
			t.Errorf("trailing request bytes %x accepted", tail)
		}
	}
}

// TestRequestEncodingWithoutWantUnchanged pins that a request with Want 0
// (every K-wide lookup, and every frame a peer predating the field sends)
// encodes byte for byte as it did before Want existed, traced or not.
func TestRequestEncodingWithoutWantUnchanged(t *testing.T) {
	req := &dht.Request{
		Kind:   dht.RPCFindNode,
		From:   dht.NodeInfo{ID: dht.StringID("from"), Addr: "1.2.3.4:5"},
		Target: dht.StringID("target"),
	}
	const untraced = "010b1e95cfd9775191a7224d0a218ae79187e80c1d09312e322e332e343a35" +
		"0e8a3ad980ec179856012b7eecf4327e99cd44cd000000010000"
	if got := hex.EncodeToString(EncodeRequest(req)); got != untraced {
		t.Errorf("untraced FindNode encodes as\n %s\nwant\n %s", got, untraced)
	}
	req.TraceID, req.SpanID = 7, 9
	const traced = "010b1e95cfd9775191a7224d0a218ae79187e80c1d09312e322e332e343a35" +
		"0e8a3ad980ec179856012b7eecf4327e99cd44cd000000010001" +
		"0000000000000007" + "0000000000000009"
	if got := hex.EncodeToString(EncodeRequest(req)); got != traced {
		t.Errorf("traced FindNode encodes as\n %s\nwant\n %s", got, traced)
	}
}

func TestRequestWantRoundTrip(t *testing.T) {
	for _, want := range []int{1, 6, 127, 128, 1 << 16} {
		for _, trace := range []telemetry.TraceID{0, 42} {
			req := &dht.Request{Kind: dht.RPCFindNode, Target: dht.StringID("k"), Want: want, TraceID: trace, SpanID: 3}
			buf := EncodeRequest(req)
			got, err := DecodeRequest(buf)
			if err != nil {
				t.Fatalf("want=%d trace=%d: %v", want, trace, err)
			}
			if got.Want != want || got.TraceID != trace {
				t.Errorf("want=%d trace=%d decoded as want=%d trace=%d", want, trace, got.Want, got.TraceID)
			}
			req.Want = 0
			if extra := len(buf) - len(EncodeRequest(req)); extra != codec.UvarintLen(uint64(want)) {
				t.Errorf("want=%d costs %d bytes on the wire, want its uvarint", want, extra)
			}
		}
	}
}

// TestWireSizeTracksEncoding holds the traffic accounting to the codec:
// every byte figure the stack reports is a sum of WireSize estimates, so
// each must stay within 10 % of what the TCP transport writes for its
// message — the encoding plus the frame's 4-byte length prefix, which the
// estimate counts.
func TestWireSizeTracksEncoding(t *testing.T) {
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", 40000+i) }
	contacts := func(n int) []dht.NodeInfo {
		out := make([]dht.NodeInfo, n)
		for i := range out {
			out[i] = dht.NodeInfo{ID: dht.StringID(fmt.Sprint("c", i)), Addr: addr(i)}
		}
		return out
	}
	from := dht.NodeInfo{ID: dht.StringID("from"), Addr: addr(99)}
	value := func(n int) dht.StoredValue {
		return dht.StoredValue{Data: bytes.Repeat([]byte{'v'}, n), Publisher: dht.StringID("pub"),
			StoredAt: 90 * time.Second, TTL: 30 * time.Minute}
	}
	requests := map[string]*dht.Request{
		"ping":            {Kind: dht.RPCPing, From: from},
		"narrow FindNode": {Kind: dht.RPCFindNode, From: from, Target: dht.StringID("t"), Want: 6},
		"K-wide FindNode": {Kind: dht.RPCFindNode, From: from, Target: dht.StringID("t")},
		"Store":           {Kind: dht.RPCStore, From: from, Target: dht.StringID("t"), Value: value(120)},
		"App":             {Kind: dht.RPCApp, From: from, App: "pier.chain", Data: bytes.Repeat([]byte{1}, 300)},
	}
	for name, req := range requests {
		checkWireSize(t, name+" request", req.WireSize(), 4+len(EncodeRequest(req)))
	}
	responses := map[string]*dht.Response{
		"ping":                  {From: from, OK: true},
		"narrow FindNode":       {From: from, Closest: contacts(6), OK: true},
		"K-wide FindNode":       {From: from, Closest: contacts(20), OK: true},
		"FindValue with values": {From: from, Closest: contacts(3), Values: []dht.StoredValue{value(60), value(80)}, OK: true},
		"Store":                 {From: from, OK: true},
		"App":                   {From: from, Data: bytes.Repeat([]byte{2}, 500), OK: true},
	}
	for name, resp := range responses {
		checkWireSize(t, name+" response", resp.WireSize(), 4+len(EncodeResponse(resp)))
	}
}

func checkWireSize(t *testing.T, name string, estimate, framed int) {
	t.Helper()
	if d := float64(estimate-framed) / float64(framed); d < -0.10 || d > 0.10 {
		t.Errorf("%s: WireSize %d, framed encoding %d bytes (%+.1f %%)", name, estimate, framed, 100*d)
	}
}

// startTCPNode spins up one DHT node served over real TCP loopback.
func startTCPNode(t testing.TB, transport *TCPTransport) (*dht.Node, *Server) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := dht.NewNode(dht.NodeInfo{ID: dht.RandomID(), Addr: ln.Addr().String()}, transport, dht.Config{})
	srv := NewServer(node, ln)
	go srv.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(srv.Close)
	return node, srv
}

func TestTCPClusterPutGet(t *testing.T) {
	transport := NewTCPTransport()
	defer transport.Close()
	const n = 8
	nodes := make([]*dht.Node, n)
	for i := range nodes {
		nodes[i], _ = startTCPNode(t, transport)
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].JoinNetwork([]dht.NodeInfo{nodes[0].Info()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nodes[2].PutContext(context.Background(), "ns", "key", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	values, _, err := nodes[6].GetContext(context.Background(), "ns", "key")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || string(values[0].Data) != "over tcp" {
		t.Fatalf("Get over TCP = %v", values)
	}
}

func TestTCPPierSearchEndToEnd(t *testing.T) {
	// The full §7 stack over real sockets: PIERSearch publishing and both
	// query strategies across TCP-served DHT nodes.
	transport := NewTCPTransport()
	defer transport.Close()
	const n = 6
	nodes := make([]*dht.Node, n)
	engines := make([]*pier.Engine, n)
	for i := range nodes {
		nodes[i], _ = startTCPNode(t, transport)
		engines[i] = pier.NewEngine(nodes[i], pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engines[i])
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].JoinNetwork([]dht.NodeInfo{nodes[0].Info()}); err != nil {
			t.Fatal(err)
		}
	}
	pub := piersearch.NewPublisher(engines[1], piersearch.ModeBoth, piersearch.Tokenizer{})
	for i := 0; i < 5; i++ {
		f := piersearch.File{Name: fmt.Sprintf("network demo track%02d.mp3", i), Size: 1000, Host: "127.0.0.1", Port: 6346}
		if _, err := pub.PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	search := piersearch.NewSearch(engines[4], piersearch.Tokenizer{})
	for _, strat := range []piersearch.Strategy{piersearch.StrategyJoin, piersearch.StrategyCache} {
		results, _, err := search.Query("network demo", strat, 0)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(results) != 5 {
			t.Fatalf("%v: %d results, want 5", strat, len(results))
		}
	}
}

func TestTCPCallToDeadNodeFails(t *testing.T) {
	transport := NewTCPTransport()
	transport.DialTimeout = 200 * time.Millisecond
	defer transport.Close()
	_, err := transport.CallContext(context.Background(), dht.NodeInfo{Addr: "127.0.0.1:1"}, &dht.Request{Kind: dht.RPCPing})
	if err == nil {
		t.Error("call to dead address succeeded")
	}
}

func TestTCPServerCloseUnblocks(t *testing.T) {
	transport := NewTCPTransport()
	defer transport.Close()
	node, srv := startTCPNode(t, transport)
	// One successful call, then close, then calls fail.
	if _, err := transport.CallContext(context.Background(), node.Info(), &dht.Request{Kind: dht.RPCPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	transport.Close()
	transport.DialTimeout = 200 * time.Millisecond
	if _, err := transport.CallContext(context.Background(), node.Info(), &dht.Request{Kind: dht.RPCPing}); err == nil {
		t.Error("call after server close succeeded")
	}
}

func BenchmarkCodecRequest(b *testing.B) {
	req := &dht.Request{
		Kind:   dht.RPCStore,
		From:   dht.NodeInfo{ID: dht.StringID("x"), Addr: "10.0.0.1:6346"},
		Target: dht.StringID("y"),
		Value:  dht.StoredValue{Data: make([]byte, 256), Publisher: dht.StringID("p")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := EncodeRequest(req)
		if _, err := DecodeRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}
