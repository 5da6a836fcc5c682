package bloom

import (
	"fmt"
	"math"
)

// Only this package's tests use what follows.

// NewWithEstimates creates a filter sized for n elements at false-positive
// probability p, using the optimal m = -n ln p / (ln 2)^2 and k = m/n ln 2.
func NewWithEstimates(n uint64, p float64) *Filter {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k)
}

// Count returns the number of Add calls made.
func (f *Filter) Count() uint64 { return f.count }

// Union ORs other into f. Both filters must have identical geometry.
func (f *Filter) Union(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return fmt.Errorf("bloom: incompatible union: %d/%d bits, %d/%d hashes", f.m, other.m, f.k, other.k)
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.count += other.count
	return nil
}

// Clear resets the filter to empty.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.count = 0
}

func appendUint64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func readUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func popcount(x uint64) int {
	// Hacker's Delight bit-count; avoids importing math/bits for one call.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}
