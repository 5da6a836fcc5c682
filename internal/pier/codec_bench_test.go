package pier

// Allocation benchmarks for the hot message codecs. Every chain step,
// probe, and cache select crosses these round-trips once per RPC,
// so allocs/op here multiplies directly into GC pressure at the hottest
// node of a skewed workload. Run with:
//
//	go test ./internal/pier/ -bench 'Msg|ValueSet' -benchmem -run '^$'
//
// The uniform value-set decode and decodeCacheReply are the paths the
// hot-key PR flattened: one backing array per set instead of one per
// value, and aliasing views instead of per-tuple copies.

import (
	"fmt"
	"testing"

	"piersearch/internal/bloom"
	"piersearch/internal/dht"
)

func benchChainMsg(n int) chainMsg {
	keys := []Value{String("alpha"), String("beta"), String("gamma")}
	cands := make([]Value, n)
	for i := range cands {
		cands[i] = Bytes(benchFileID(i))
	}
	return chainMsg{
		QID: 7, Table: "Inverted", JoinCol: "fileID", Keys: keys, Step: 1,
		Candidates: cands, Origin: dht.NodeInfo{ID: dht.StringID("o"), Addr: "10.1.2.3:6346"},
		Shipped: n, Hops: 2, Bytes: 1 << 12,
	}
}

func BenchmarkChainMsgRoundTrip(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		msg := benchChainMsg(n)
		wire := encodeChainMsg(nil, &msg)
		b.Run(fmt.Sprintf("cands=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = encodeChainMsg(buf[:0], &msg)
				if _, err := decodeChainMsg(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBloomMsgRoundTrip is one probe: the request, and a reply
// carrying a 1 KiB filter at the fixed geometry.
func BenchmarkBloomMsgRoundTrip(b *testing.B) {
	msg := bloomMsg{Table: "Inverted", Key: String("stream"), JoinCol: "fileID"}
	wire := encodeBloomMsg(nil, &msg)
	f := bloom.New(filterBits, filterHashes)
	for i := 0; i < 42; i++ {
		f.Add(benchFileID(i))
	}
	raw, _ := f.MarshalBinary()
	br := bloomReply{Count: 42, Filter: raw}
	reply := encodeBloomReply(nil, &br)
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = encodeBloomMsg(buf[:0], &msg)
		if _, err := decodeBloomMsg(wire); err != nil {
			b.Fatal(err)
		}
		buf = encodeBloomReply(buf[:0], &br)
		if _, err := decodeBloomReply(reply); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheReplyRoundTrip(b *testing.B) {
	for _, n := range []int{4, 32} {
		reply := cacheReply{}
		for i := 0; i < n; i++ {
			t := Tuple{String(fmt.Sprintf("common stream track%02d.mp3", i)), Int(int64(1000 + i))}
			reply.Tuples = append(reply.Tuples, t.Encode(nil))
		}
		wire := encodeCacheReply(nil, &reply)
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = encodeCacheReply(buf[:0], &reply)
				if _, err := decodeCacheReply(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValueSetDecodeUniform(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = Bytes(benchFileID(i))
		}
		wire := EncodeValueSet(nil, vs)
		b.Run(fmt.Sprintf("ids=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeValueSet(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
