package pier

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"piersearch/internal/bloom"
	"piersearch/internal/dht"
)

func benchFileID(i int) []byte {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	h := sha1.Sum(seed[:])
	return h[:]
}

func testOrigin() dht.NodeInfo {
	return dht.NodeInfo{ID: dht.StringID("origin"), Addr: "10.1.2.3:6346"}
}

// sortedClone returns vs sorted canonically, for set comparison.
func sortedClone(vs []Value) []Value {
	out := append([]Value(nil), vs...)
	sortValues(out)
	return out
}

func valueSetsEqual(a, b []Value) bool {
	a, b = sortedClone(a), sortedClone(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestValueSetRoundTripFileIDs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 513} {
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = Bytes(benchFileID(i))
		}
		orig := sortedClone(vs)
		enc := EncodeValueSet(nil, vs)
		got, err := DecodeValueSet(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !valueSetsEqual(orig, got) {
			t.Fatalf("n=%d: set mismatch", n)
		}
	}
}

func TestValueSetRoundTripMixedKinds(t *testing.T) {
	vs := []Value{
		Int(-5), Int(1000), Int(-5000000), Int(0),
		String(""), String("abba"), String("abbey road"), String("zz"),
		Bytes(nil), Bytes([]byte{0}), Bytes([]byte{0, 1, 2}), Bytes([]byte("same prefix a")), Bytes([]byte("same prefix b")),
	}
	orig := sortedClone(vs)
	enc := EncodeValueSet(nil, vs)
	got, err := DecodeValueSet(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !valueSetsEqual(orig, got) {
		t.Fatalf("mixed set mismatch:\n%#v\nvs\n%#v", orig, got)
	}
}

func TestValueSetDeltaCompresses(t *testing.T) {
	// 128 sorted fileIDs front-code below the plain length-prefixed form.
	vs := make([]Value, 128)
	plain := 0
	for i := range vs {
		vs[i] = Bytes(benchFileID(i))
		plain += 1 + len(vs[i].B) // uvarint len + payload
	}
	enc := EncodeValueSet(nil, vs)
	if len(enc) >= plain {
		t.Errorf("delta set %d bytes >= plain %d bytes", len(enc), plain)
	}
}

func TestChainMsgRoundTrip(t *testing.T) {
	cands := make([]Value, 32)
	for i := range cands {
		cands[i] = Bytes(benchFileID(i))
	}
	m := chainMsg{
		QID:        42,
		Table:      "Inverted",
		JoinCol:    "fileID",
		Keys:       []Value{String("alpha"), String("beta"), String("gamma")},
		Step:       1,
		Candidates: cands,
		Origin:     testOrigin(),
		Shipped:    32,
		Hops:       2,
		Bytes:      4096,
		Filter:     []byte{1, 2, 3, 4},
	}
	enc := encodeChainMsg(nil, &m)
	got, err := decodeChainMsg(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.QID != m.QID || got.Table != m.Table || got.JoinCol != m.JoinCol ||
		got.Step != m.Step || got.Shipped != m.Shipped || got.Hops != m.Hops ||
		got.Bytes != m.Bytes || got.Origin != m.Origin {
		t.Fatalf("fields mismatch: %+v vs %+v", got, m)
	}
	if !reflect.DeepEqual(got.Keys, m.Keys) {
		t.Fatal("keys order not preserved")
	}
	if !valueSetsEqual(got.Candidates, m.Candidates) {
		t.Fatal("candidate set mismatch")
	}
	if !reflect.DeepEqual(got.Filter, m.Filter) {
		t.Fatal("filter mismatch")
	}
}

func TestResultMsgRoundTrip(t *testing.T) {
	m := resultMsg{
		QID:     9,
		Values:  []Value{Bytes(benchFileID(1)), Bytes(benchFileID(2))},
		Shipped: 7,
		Hops:    3,
		Bytes:   850,
		Err:     "boom",
	}
	enc := encodeResultMsg(nil, &m)
	got, err := decodeResultMsg(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.QID != m.QID || got.Shipped != m.Shipped || got.Hops != m.Hops || got.Bytes != m.Bytes || got.Err != m.Err {
		t.Fatalf("fields mismatch: %+v", got)
	}
	if !valueSetsEqual(got.Values, m.Values) {
		t.Fatal("value set mismatch")
	}
}

func TestSmallMessagesRoundTrip(t *testing.T) {
	qm := cacheMsg{Table: "InvertedCache", Key: String("alpha"), TextCol: "fulltext", Filters: []string{"beta", "gamma"}, Limit: -1}
	gotQM, err := decodeCacheMsg(encodeCacheMsg(nil, &qm))
	if err != nil || !reflect.DeepEqual(gotQM, qm) {
		t.Fatalf("cacheMsg: %+v, %v", gotQM, err)
	}
	cr := cacheReply{Tuples: [][]byte{Tuple{String("a")}.Encode(nil), Tuple{Int(4)}.Encode(nil)}}
	gotCR, err := decodeCacheReply(encodeCacheReply(nil, &cr))
	if err != nil || !reflect.DeepEqual(gotCR, cr) {
		t.Fatalf("cacheReply: %+v, %v", gotCR, err)
	}
	bm := bloomMsg{Table: "Inverted", Key: String("alpha"), JoinCol: "fileID"}
	gotBM, err := decodeBloomMsg(encodeBloomMsg(nil, &bm))
	if err != nil || !reflect.DeepEqual(gotBM, bm) {
		t.Fatalf("bloomMsg: %+v, %v", gotBM, err)
	}
	br := bloomReply{Count: 12, Filter: []byte{9, 9, 9}}
	gotBR, err := decodeBloomReply(encodeBloomReply(nil, &br))
	if err != nil || !reflect.DeepEqual(gotBR, br) {
		t.Fatalf("bloomReply: %+v, %v", gotBR, err)
	}
}

// TestDecodeRejectsTruncation decodes every proper prefix of every message
// kind: all must error, none may panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	m := chainMsg{
		QID: 1, Table: "Inverted", JoinCol: "fileID",
		Keys:       []Value{String("alpha"), String("beta")},
		Candidates: []Value{Bytes(benchFileID(0)), Bytes(benchFileID(1)), Int(4), String("x")},
		Origin:     testOrigin(),
		Filter:     []byte{1, 2},
	}
	frames := map[string][]byte{
		"chain":      encodeChainMsg(nil, &m),
		"result":     encodeResultMsg(nil, &resultMsg{QID: 1, Values: []Value{Bytes(benchFileID(0))}, Err: "e"}),
		"cache":      encodeCacheMsg(nil, &cacheMsg{Table: "t", Key: String("k"), TextCol: "c", Filters: []string{"f"}, Limit: 5}),
		"cacheReply": encodeCacheReply(nil, &cacheReply{Tuples: [][]byte{{1, 2, 3}}}),
		"bloom":      encodeBloomMsg(nil, &bloomMsg{Table: "t", Key: String("k"), JoinCol: "c"}),
		"bloomReply": encodeBloomReply(nil, &bloomReply{Count: 3, Filter: []byte{8}}),
	}
	decoders := map[string]func([]byte) error{
		"chain":      func(b []byte) error { _, err := decodeChainMsg(b); return err },
		"result":     func(b []byte) error { _, err := decodeResultMsg(b); return err },
		"cache":      func(b []byte) error { _, err := decodeCacheMsg(b); return err },
		"cacheReply": func(b []byte) error { _, err := decodeCacheReply(b); return err },
		"bloom":      func(b []byte) error { _, err := decodeBloomMsg(b); return err },
		"bloomReply": func(b []byte) error { _, err := decodeBloomReply(b); return err },
	}
	for kind, frame := range frames {
		dec := decoders[kind]
		if err := dec(frame); err != nil {
			t.Fatalf("%s: full frame rejected: %v", kind, err)
		}
		for i := 0; i < len(frame); i++ {
			if err := dec(frame[:i]); err == nil {
				t.Fatalf("%s: prefix %d/%d accepted", kind, i, len(frame))
			}
		}
		// Oversized: trailing garbage must be rejected too.
		if err := dec(append(append([]byte(nil), frame...), 0xFF)); err == nil {
			t.Fatalf("%s: trailing byte accepted", kind)
		}
		// Version skew.
		bad := append([]byte(nil), frame...)
		bad[0] = msgVersion + 1
		if err := dec(bad); err == nil {
			t.Fatalf("%s: wrong version accepted", kind)
		}
	}
}

// TestDecodeRejectsAmplification pins the front-coding amplification
// guard: a small frame whose entries all claim shared==width (so each
// costs ~2 input bytes but width output bytes) must be rejected instead
// of allocating n*width bytes.
func TestDecodeRejectsAmplification(t *testing.T) {
	const n, width = 4096, 64 << 10 // would decode to 256 MiB
	buf := []byte{msgVersion}
	buf = append(buf, setUniformBytes)
	buf = binary.AppendUvarint(buf, n)
	buf = binary.AppendUvarint(buf, width)
	// First entry: shared 0, full width of zeros.
	buf = binary.AppendUvarint(buf, 0)
	buf = append(buf, make([]byte, width)...)
	// Remaining entries: shared == width, empty suffix.
	for i := 1; i < n; i++ {
		buf = binary.AppendUvarint(buf, width)
	}
	if _, err := decodeResultMsg(buf); err == nil {
		t.Fatal("amplifying uniform set accepted")
	}
	// Generic-mode equivalent: byte entries repeating the full predecessor.
	buf = []byte{msgVersion}
	buf = append(buf, setGeneric)
	buf = binary.AppendUvarint(buf, n)
	buf = append(buf, byte(KindBytes))
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, width)
	buf = append(buf, make([]byte, width)...)
	for i := 1; i < n; i++ {
		buf = append(buf, byte(KindBytes))
		buf = binary.AppendUvarint(buf, width) // shared = all of prev
		buf = binary.AppendUvarint(buf, 0)     // empty suffix
	}
	if _, err := decodeResultMsg(buf); err == nil {
		t.Fatal("amplifying generic set accepted")
	}
}

// TestChainMsgRejectsBadStep pins that a hostile chain plan whose Step
// indexes outside Keys is rejected at decode, so handleChain cannot be
// panicked by a remote peer.
func TestChainMsgRejectsBadStep(t *testing.T) {
	m := chainMsg{
		QID: 1, Table: "Inverted", JoinCol: "fileID",
		Keys:   []Value{String("alpha")},
		Step:   7,
		Origin: testOrigin(),
	}
	enc := encodeChainMsg(nil, &m)
	if _, err := decodeChainMsg(enc); err == nil {
		t.Fatal("out-of-range Step accepted")
	}
	m.Step = 0
	m.Keys = nil
	if _, err := decodeChainMsg(encodeChainMsg(nil, &m)); err == nil {
		t.Fatal("empty Keys accepted")
	}
	// Step = 2^63 would wrap negative through int() and slip past a naive
	// >= len(Keys) guard; the decoder must reject it outright.
	wrap := []byte{msgVersion}
	wrap = binary.AppendUvarint(wrap, 1)             // QID
	wrap = append(wrap, 1, 't')                      // Table "t"
	wrap = append(wrap, 1, 'c')                      // JoinCol "c"
	wrap = binary.AppendUvarint(wrap, 1)             // one key
	wrap = append(wrap, byte(KindString), 1, 'k')    // String("k")
	wrap = binary.AppendUvarint(wrap, uint64(1)<<63) // hostile Step
	if _, err := decodeChainMsg(wrap); err == nil {
		t.Fatal("negative-wrapping Step accepted")
	}
	// The handler must survive such frames without panicking.
	env := newTestEnv(t, 4, Config{})
	bad := encodeChainMsg(nil, &chainMsg{QID: 1, Table: "Inverted", JoinCol: "fileID", Keys: []Value{String("a")}, Step: 3, Origin: testOrigin()})
	if reply := env.engines[0].handleChain(env.engines[1].node.Info(), bad); reply != nil {
		t.Fatalf("bad chain frame acked: %v", reply)
	}
}

// TestDecodeRejectsHostileCounts feeds length fields that claim far more
// elements or wider values than the frame holds.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	// Uniform set claiming 2^40 entries.
	buf := []byte{msgVersion}
	buf = append(buf, 1)                   // setUniformBytes
	buf = binary.AppendUvarint(buf, 1<<40) // n
	buf = binary.AppendUvarint(buf, 20)    // width
	if _, err := decodeResultMsg(buf); err == nil {
		t.Fatal("huge set count accepted")
	}
	// Uniform set with width far beyond the buffer.
	buf = []byte{msgVersion}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, 1<<40)
	if _, err := decodeResultMsg(buf); err == nil {
		t.Fatal("huge width accepted")
	}
	// Generic set with a shared-prefix longer than the predecessor.
	buf = []byte{msgVersion}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, 1)
	buf = append(buf, byte(KindBytes))
	buf = binary.AppendUvarint(buf, 99) // shared prefix with empty prev
	buf = binary.AppendUvarint(buf, 0)
	if _, err := decodeResultMsg(buf); err == nil {
		t.Fatal("bad shared prefix accepted")
	}
}

// FuzzDecodeChainMsg hammers the chain-message decoder (the most complex
// frame: nested value list, delta set, node info) with arbitrary bytes.
// Run with: go test -fuzz FuzzDecodeChainMsg ./internal/pier
func FuzzDecodeChainMsg(f *testing.F) {
	m := chainMsg{
		QID: 3, Table: "Inverted", JoinCol: "fileID",
		Keys:       []Value{String("alpha"), String("beta")},
		Step:       1,
		Candidates: []Value{Bytes(benchFileID(0)), Bytes(benchFileID(1))},
		Origin:     testOrigin(),
		Shipped:    2, Hops: 1, Bytes: 128,
	}
	full := encodeChainMsg(nil, &m)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(encodeResultMsg(nil, &resultMsg{QID: 1, Values: []Value{Int(4), Int(9)}}))
	f.Add([]byte{msgVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeChainMsg(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and re-decode to the same
		// message (candidate sets compare as sets).
		re := encodeChainMsg(nil, &msg)
		again, err := decodeChainMsg(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.QID != msg.QID || !valueSetsEqual(again.Candidates, msg.Candidates) {
			t.Fatal("re-decode mismatch")
		}
	})
}

// FuzzDecodeBloomReply runs a peer's probe reply through the origin's
// decode path: the reply codec, the pre-join filter check, and one Test.
// Whatever filter it accepts has the fixed geometry. Run with:
// go test -fuzz FuzzDecodeBloomReply ./internal/pier
func FuzzDecodeBloomReply(f *testing.F) {
	valid, _ := bloom.New(filterBits, filterHashes).MarshalBinary()
	f.Add(encodeBloomReply(nil, &bloomReply{Count: 3, Filter: valid}))
	f.Add(encodeBloomReply(nil, &bloomReply{Count: 3}))
	for _, filter := range hostileProbeFilters() {
		f.Add(encodeBloomReply(nil, &bloomReply{Count: 1, Filter: filter}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := decodeBloomReply(data)
		if err != nil {
			return
		}
		pre := decodePreJoinFilter(br.Filter)
		if pre == nil {
			return
		}
		if pre.Bits() != filterBits || pre.K() != filterHashes {
			t.Fatalf("accepted a %d-bit, %d-hash filter", pre.Bits(), pre.K())
		}
		pre.TestString("probe")
	})
}

// TestValueSetProperty round-trips random sets of random kinds.
func TestValueSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(40)
		vs := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				vs = append(vs, Int(rng.Int63n(1<<40)-(1<<39)))
			case 1:
				b := make([]byte, rng.Intn(30))
				rng.Read(b)
				vs = append(vs, String(string(b)))
			default:
				b := make([]byte, rng.Intn(30))
				rng.Read(b)
				vs = append(vs, Bytes(b))
			}
		}
		orig := sortedClone(vs)
		got, err := DecodeValueSet(EncodeValueSet(nil, vs))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !valueSetsEqual(orig, got) {
			t.Fatalf("iter %d: set mismatch", iter)
		}
	}
}

// TestValueSetSortedOutput pins the wire contract that decoded sets arrive
// in canonical sorted order (dedup/merge downstream relies on it).
func TestValueSetSortedOutput(t *testing.T) {
	vs := []Value{Bytes([]byte("zz")), Bytes([]byte("aa")), Bytes([]byte("mm"))}
	got, err := DecodeValueSet(EncodeValueSet(nil, vs))
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return string(got[i].B) < string(got[j].B) }) {
		t.Fatalf("decoded set not sorted: %#v", got)
	}
}
