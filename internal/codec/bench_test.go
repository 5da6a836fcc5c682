package codec

import (
	"crypto/sha1"
	"encoding/binary"
	"testing"
)

// syntheticIDs returns n distinct 20-byte hash values, the shape of the
// fileIDs the posting-set codec in package pier front-codes.
func syntheticIDs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(i))
		h := sha1.Sum(seed[:])
		out[i] = h[:]
	}
	return out
}

// BenchmarkAppendPrimitives measures the raw append path (zero allocations
// once dst has capacity) and reports the encoded size explicitly.
func BenchmarkAppendPrimitives(b *testing.B) {
	dst := make([]byte, 0, 256)
	var size int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		dst = AppendUvarint(dst, uint64(i))
		dst = AppendVarint(dst, -int64(i))
		dst = AppendString(dst, "inverted")
		dst = AppendBytes(dst, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		size = len(dst)
	}
	b.ReportMetric(float64(size), "encoded-bytes/op")
}

// BenchmarkReader measures the decode path over a fixed frame.
func BenchmarkReader(b *testing.B) {
	var buf []byte
	buf = AppendUvarint(buf, 123456)
	buf = AppendString(buf, "inverted")
	buf = AppendBytes(buf, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		r.Uvarint()
		_ = r.View()
		_ = r.View()
		if r.Finish() != nil {
			b.Fatal("decode failed")
		}
	}
	b.ReportMetric(float64(len(buf)), "encoded-bytes/op")
}

// BenchmarkLengthPrefixedIDs is the un-delta'd baseline for a posting
// payload: 256 hash IDs, each length-prefixed. Package pier's
// EncodeValueSet benchmark (root codec_bench_test.go) reports the
// front-coded and gob sizes for the same shape.
func BenchmarkLengthPrefixedIDs(b *testing.B) {
	ids := syntheticIDs(256)
	dst := make([]byte, 0, 8192)
	var size int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		dst = AppendUvarint(dst, uint64(len(ids)))
		for _, id := range ids {
			dst = AppendBytes(dst, id)
		}
		size = len(dst)
	}
	b.ReportMetric(float64(size), "encoded-bytes/op")
	b.SetBytes(int64(size))
}

// BenchmarkPooledEncode measures GetBuf/PutBuf reuse around a typical
// message-sized encode.
func BenchmarkPooledEncode(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		buf = AppendByte(buf, 1)
		buf = AppendUvarint(buf, uint64(i))
		buf = AppendBytes(buf, payload)
		PutBuf(buf)
	}
}
