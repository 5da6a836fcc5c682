// Package bloom implements Bloom filters. Gnutella leaf nodes publish Bloom
// filters of their file keywords to ultrapeers (the Query Routing Protocol
// the paper describes in §4.1), and §6.3 suggests compressed Bloom filters
// for storing term-frequency sets. Filters use double hashing over two
// 64-bit FNV-1a halves, the standard Kirsch–Mitzenmacher construction.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// Filter is a fixed-size Bloom filter. The zero value is not usable; create
// filters with New or UnmarshalBinary.
type Filter struct {
	bits  []uint64
	m     uint64 // number of bits
	k     uint32 // number of hash functions
	count uint64 // number of Add calls (approximate element count)
}

// New creates a filter with m bits and k hash functions. m is rounded up to
// a multiple of 64. It panics if m or k is zero.
func New(m uint64, k uint32) *Filter {
	if m == 0 || k == 0 {
		panic("bloom: m and k must be positive")
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// hashes returns the two base hashes for data.
func hashes(data []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(data)
	h1 := h.Sum64()
	// Second, independent-ish hash: FNV over the first hash's bytes.
	h.Reset()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(h1 >> (8 * i))
	}
	h.Write(buf[:])
	return h1, h.Sum64()
}

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	h1, h2 := hashes(data)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
	f.count++
}

// AddString inserts s into the filter.
func (f *Filter) AddString(s string) { f.Add([]byte(s)) }

// Test reports whether data may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Test(data []byte) bool {
	h1, h2 := hashes(data)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// TestString reports whether s may be in the filter.
func (f *Filter) TestString(s string) bool { return f.Test([]byte(s)) }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() uint32 { return f.k }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	var ones uint64
	for _, w := range f.bits {
		ones += uint64(bits.OnesCount64(w))
	}
	return float64(ones) / float64(f.m)
}

// EstimatedFalsePositiveRate returns the expected false-positive probability
// given the current fill ratio: fill^k.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// Intersect ANDs other into f. Both filters must have identical geometry.
// The result is a conservative filter for the set intersection: anything in
// both underlying sets still tests positive (no false negatives), while the
// false-positive rate is at most that of either input. PIER's concurrent
// chain join intersects the per-keyword posting filters this way to prune
// candidates before any posting list is shipped.
func (f *Filter) Intersect(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return fmt.Errorf("bloom: incompatible intersect: %d/%d bits, %d/%d hashes", f.m, other.m, f.k, other.k)
	}
	for i := range f.bits {
		f.bits[i] &= other.bits[i]
	}
	if other.count < f.count {
		f.count = other.count // upper bound on the intersection cardinality
	}
	return nil
}

// Clone returns an independent copy of f.
func (f *Filter) Clone() *Filter {
	out := &Filter{bits: make([]uint64, len(f.bits)), m: f.m, k: f.k, count: f.count}
	copy(out.bits, f.bits)
	return out
}

// SizeBytes returns the in-memory size of the bit array, the quantity a
// Gnutella leaf ships to its ultrapeer when publishing its keyword filter.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// MarshalBinary encodes the filter as little-endian uint64s: bit count m,
// hash count k, Add count, then the m/64 words of the bit array.
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 24+len(f.bits)*8)
	out = binary.LittleEndian.AppendUint64(out, f.m)
	out = binary.LittleEndian.AppendUint64(out, uint64(f.k))
	out = binary.LittleEndian.AppendUint64(out, f.count)
	for _, w := range f.bits {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary decodes a filter produced by MarshalBinary. The bytes may
// come from a peer, so it accepts only a geometry New could have made: m a
// positive multiple of 64 that matches the buffer length, and k in
// [1, 2³²). Anything else would make Test divide by zero, index past the
// bit array, or re-encode differently.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return errors.New("bloom: short buffer")
	}
	m := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint64(data[8:])
	count := binary.LittleEndian.Uint64(data[16:])
	if m == 0 || m%64 != 0 {
		return fmt.Errorf("bloom: bit count %d is not a positive multiple of 64", m)
	}
	if k == 0 || k > math.MaxUint32 {
		return fmt.Errorf("bloom: hash count %d out of range", k)
	}
	if uint64(len(data)-24) != m/8 {
		return fmt.Errorf("bloom: buffer length %d does not match %d bits", len(data), m)
	}
	f.m = m
	f.k = uint32(k)
	f.count = count
	f.bits = make([]uint64, m/64)
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[24+8*i:])
	}
	return nil
}
