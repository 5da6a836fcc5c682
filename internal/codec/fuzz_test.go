package codec

import (
	"bytes"
	"testing"
)

// FuzzReader drives the sticky-error reader over arbitrary bytes with a
// fixed read script. It must never panic and never allocate beyond the
// input's size; whatever decodes must re-encode to the bytes consumed.
// Run with: go test -fuzz FuzzReader ./internal/codec
func FuzzReader(f *testing.F) {
	// Seed corpus: well-formed streams for each primitive plus hostile
	// length prefixes and truncations.
	f.Add(AppendUvarint(nil, 0))
	f.Add(AppendUvarint(nil, 1<<40))
	f.Add(AppendVarint(nil, -12345))
	f.Add([]byte{0x40, 0x04, 0, 0, 0, 0, 0, 0}) // fixed-width raw field
	f.Add(AppendBytes(nil, []byte("payload")))
	f.Add(AppendString(nil, "hello world"))
	var mixed []byte
	mixed = AppendByte(mixed, 1)
	mixed = AppendUvarint(mixed, 7)
	mixed = AppendString(mixed, "k")
	mixed = AppendBytes(mixed, []byte{9, 9})
	f.Add(mixed)
	f.Add(AppendUvarint(nil, 1<<60)) // hostile length
	f.Add([]byte{})
	f.Add([]byte{0x80}) // unterminated varint

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		b := r.Byte()
		u := r.Uvarint()
		s := r.String()
		p := r.Bytes()
		if r.Err() != nil {
			return
		}
		// Whatever decoded must survive an encode/decode round trip.
		// (Byte-for-byte comparison against the input would be wrong: LEB128
		// accepts non-minimal encodings that re-encode shorter.)
		var enc []byte
		enc = AppendByte(enc, b)
		enc = AppendUvarint(enc, u)
		enc = AppendString(enc, s)
		enc = AppendBytes(enc, p)
		r2 := NewReader(enc)
		if b2, u2, s2, p2 := r2.Byte(), r2.Uvarint(), r2.String(), r2.Bytes(); b2 != b || u2 != u || s2 != s || !bytes.Equal(p2, p) {
			t.Fatalf("round trip mismatch: (%v %v %q %x) vs (%v %v %q %x)", b2, u2, s2, p2, b, u, s, p)
		}
		if err := r2.Finish(); err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
	})
}
