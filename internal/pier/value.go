package pier

import (
	"encoding/binary"
	"fmt"

	"piersearch/internal/codec"
)

// Kind is the type tag of a Value.
type Kind uint8

// Supported value kinds.
const (
	KindString Kind = iota
	KindInt
	KindBytes
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindBytes:
		return "bytes"
	default:
		return "invalid"
	}
}

// Value is one typed field of a tuple. Values cross process boundaries in
// the compact binary form of wirefmt.go (internal/codec primitives); the
// fields stay exported for constructors in other packages and test
// literals, but use the constructors and accessors rather than touching
// them directly.
type Value struct {
	K Kind
	S string
	I int64
	B []byte
}

// String constructs a string value.
func String(s string) Value { return Value{K: KindString, S: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Bytes constructs a byte-string value.
func Bytes(b []byte) Value { return Value{K: KindBytes, B: b} }

// Text returns the string payload (empty for non-string values).
func (v Value) Text() string { return v.S }

// Num returns the integer payload (zero for non-int values).
func (v Value) Num() int64 { return v.I }

// Raw returns the byte payload (nil for non-bytes values).
func (v Value) Raw() []byte { return v.B }

// Key returns a collision-free map key for hash-based operators: the kind
// byte followed by the payload.
func (v Value) Key() string {
	switch v.K {
	case KindString:
		return "s" + v.S
	case KindInt:
		var buf [9]byte
		buf[0] = 'i'
		binary.BigEndian.PutUint64(buf[1:], uint64(v.I))
		return string(buf[:])
	case KindBytes:
		return "b" + string(v.B)
	}
	return "?"
}

// GoString formats the value for debugging.
func (v Value) GoString() string {
	switch v.K {
	case KindString:
		return fmt.Sprintf("%q", v.S)
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.B)
	}
	return "invalid"
}

// Tuple is an ordered list of values; column names live in the Schema.
type Tuple []Value

// The tuple wire format, shared with the engine's message codec
// (wirefmt.go) via the internal/codec primitives:
//
//	uvarint(ncols) then per column: kind byte, then
//	  string/bytes: uvarint(len) payload
//	  int:          zigzag varint

// Encode appends the tuple's wire form to dst and returns it.
func (t Tuple) Encode(dst []byte) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = appendValue(dst, v)
	}
	return dst
}

// EncodedSize returns the wire size of the tuple without encoding it:
// len(t.Encode(nil)), by arithmetic over the layout above.
func (t Tuple) EncodedSize() int {
	n := codec.UvarintLen(uint64(len(t)))
	for _, v := range t {
		n++ // kind byte
		switch v.K {
		case KindString:
			n += codec.UvarintLen(uint64(len(v.S))) + len(v.S)
		case KindInt:
			n += codec.UvarintLen(uint64(v.I<<1) ^ uint64(v.I>>63)) // zigzag, as AppendVarint
		case KindBytes:
			n += codec.UvarintLen(uint64(len(v.B))) + len(v.B)
		}
	}
	return n
}

// DecodeTuple parses one tuple from buf, returning the tuple and the number
// of bytes consumed. Trailing bytes after the tuple are not an error: the
// caller may be walking a concatenated stream.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	r := codec.NewReader(buf)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, 0, fmt.Errorf("pier: bad tuple header")
	}
	if n > 1<<20 || n > uint64(r.Len()) {
		return nil, 0, fmt.Errorf("pier: unreasonable column count %d", n)
	}
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		t = append(t, readValue(r))
		if err := r.Err(); err != nil {
			return nil, 0, fmt.Errorf("pier: truncated tuple: %w", err)
		}
	}
	return t, len(buf) - r.Len(), nil
}
