package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Only this package's tests use what follows.

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observed sample (NaN when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.min
}

// Merge folds other into h. The two histograms must share geometry
// (identical lo, hi and growth factor), or an error is returned and h is
// unchanged.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.lo != other.lo || h.hi != other.hi || h.ratio != other.ratio || len(h.counts) != len(other.counts) {
		return fmt.Errorf("metrics: histogram geometry mismatch: [%v,%v]x%v/%d vs [%v,%v]x%v/%d",
			h.lo, h.hi, h.ratio, len(h.counts), other.lo, other.hi, other.ratio, len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.under += other.under
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.mx > h.mx {
			h.mx = other.mx
		}
	}
	return nil
}
