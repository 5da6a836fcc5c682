package telemetry

import (
	"fmt"
	"math"
)

// Only this package's tests use what follows.

// Spans returns every span currently in the ring, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// Dropped reports how many spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Min returns the smallest observed sample (NaN when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
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
	h.mu.Lock()
	defer h.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	if h.lo != other.lo || h.hi != other.hi || h.ratio != other.ratio || len(h.counts) != len(other.counts) {
		return fmt.Errorf("telemetry: histogram geometry mismatch: [%v,%v]x%v/%d vs [%v,%v]x%v/%d",
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
