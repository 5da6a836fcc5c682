package metrics

import (
	"fmt"
	"math"
)

// Histogram is a fixed-geometry log-scale latency histogram: bucket edges
// grow geometrically from Lo to Hi, so relative quantile error is bounded
// by the per-bucket growth factor regardless of where the mass lands. The
// scale harness records one histogram per replay phase and serializes only
// the derived quantiles, so the geometry (not the samples) is what two
// runs must agree on for byte-identical reports.
//
// The zero value is not usable; construct with NewHistogram. Histogram is
// not safe for concurrent use — the virtual-time harness serialises all
// observers, and wall-clock callers must bring their own lock.
type Histogram struct {
	lo, hi  float64
	ratio   float64 // per-bucket growth factor, > 1
	counts  []uint64
	under   uint64 // samples below lo (counted into quantiles at lo)
	count   uint64
	sum     float64
	min, mx float64
}

// NewHistogram creates a histogram covering [lo, hi] with bucketsPerDecade
// geometric buckets per factor-of-ten. lo and hi must be positive with
// lo < hi; bucketsPerDecade must be positive. 40 buckets per decade keeps
// quantile error under ~6%.
func NewHistogram(lo, hi float64, bucketsPerDecade int) *Histogram {
	if lo <= 0 || hi <= lo || bucketsPerDecade <= 0 {
		panic(fmt.Sprintf("metrics: bad histogram geometry lo=%v hi=%v perDecade=%d", lo, hi, bucketsPerDecade))
	}
	ratio := math.Pow(10, 1/float64(bucketsPerDecade))
	n := int(math.Ceil(math.Log(hi/lo)/math.Log(ratio))) + 1
	return &Histogram{
		lo:     lo,
		hi:     hi,
		ratio:  ratio,
		counts: make([]uint64, n),
		min:    math.Inf(1),
		mx:     math.Inf(-1),
	}
}

// bucketOf returns the bucket index for v (v >= lo).
func (h *Histogram) bucketOf(v float64) int {
	i := int(math.Log(v/h.lo) / math.Log(h.ratio))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// Observe records one sample. Values below lo are clamped into the first
// bucket; values above hi into the last (Min/Max still record the true
// extremes).
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.mx {
		h.mx = v
	}
	if v < h.lo {
		h.under++
		return
	}
	h.counts[h.bucketOf(v)]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observed sample (NaN when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.mx
}

// HistQuantile returns the q-quantile (0 <= q <= 1) estimated from the
// bucket counts: the geometric midpoint of the bucket holding the q-th
// sample, clamped into [Min, Max] so tiny histograms do not report values
// outside the observed range. NaN when empty.
func (h *Histogram) HistQuantile(q float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	seen := h.under
	if seen >= rank {
		return h.clamp(h.lo)
	}
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			low := h.lo * math.Pow(h.ratio, float64(i))
			return h.clamp(low * math.Sqrt(h.ratio)) // geometric bucket midpoint
		}
	}
	return h.clamp(h.mx)
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.mx {
		return h.mx
	}
	return v
}
