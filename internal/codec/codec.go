package codec

import (
	"encoding/binary"
	"errors"
	"sync"
)

// --- append-style encoders --------------------------------------------------

// AppendByte appends a single byte.
func AppendByte(dst []byte, b byte) []byte { return append(dst, b) }

// AppendUvarint appends v in LEB128 form.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v in zigzag varint form.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBytes appends b with a uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// UvarintLen returns the encoded size of v in bytes without encoding it,
// for encoders that cost out alternative layouts before committing.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SharedPrefix returns the length of the longest common prefix of a and b —
// the quantity the front-coded set encodings elide.
func SharedPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// SharedPrefixString is SharedPrefix over strings.
func SharedPrefixString(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// --- sticky-error reader ----------------------------------------------------

// Reader decodes a buffer sequentially. The first malformed field sets a
// sticky error; subsequent reads return zero values, so decoders can read
// a whole message and check Err once.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a reader over buf. The reader aliases buf; Take and
// View return sub-slices of it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Fail poisons the reader with a decode error (first failure wins).
func (r *Reader) Fail(msg string) {
	if r.err == nil {
		r.err = errors.New("codec: " + msg)
	}
}

// Finish returns the sticky error, or an error if undecoded bytes remain —
// decoders call it last to reject oversized frames.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail("trailing bytes")
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || len(r.buf) < 1 {
		r.Fail("truncated byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Uvarint reads a LEB128 unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Take returns the next n bytes without copying. The slice aliases the
// reader's buffer, so it is only valid while that buffer lives.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || len(r.buf) < n {
		r.Fail("truncated field")
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// View reads a uvarint length prefix and returns that many bytes without
// copying (aliases the reader's buffer).
func (r *Reader) View() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < n {
		r.Fail("truncated bytes")
		return nil
	}
	return r.Take(int(n))
}

// Bytes reads a uvarint length prefix and returns a copy of the payload.
// The length is validated against the remaining buffer before allocating,
// so a corrupt prefix cannot force a huge allocation.
func (r *Reader) Bytes() []byte {
	v := r.View()
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// String reads a uvarint length prefix and the payload as a string.
func (r *Reader) String() string {
	v := r.View()
	if r.err != nil {
		return ""
	}
	return string(v)
}

// Count reads a uvarint element count and rejects any value larger than
// the remaining bytes: every element of a well-formed sequence occupies at
// least one byte, so a larger count is a truncated or hostile frame and
// must not size an allocation.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)) {
		r.Fail("element count exceeds buffer")
		return 0
	}
	return int(n)
}

// --- scratch-buffer pool ----------------------------------------------------

// maxPooledBuf caps the capacity of buffers kept in the pool, so one huge
// message does not pin its allocation forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// GetBuf returns an empty byte slice with pooled capacity for use as an
// encoder destination. Hand it back with PutBuf when the encoded bytes are
// no longer referenced (transports are synchronous: once a Call/Write
// returns, the buffer is free).
func GetBuf() []byte { return (*bufPool.Get().(*[]byte))[:0] }

// PutBuf returns buf's storage to the pool. Callers must not use buf (or
// any alias of it) afterwards.
func PutBuf(buf []byte) {
	if cap(buf) == 0 || cap(buf) > maxPooledBuf {
		return
	}
	buf = buf[:0]
	bufPool.Put(&buf)
}
