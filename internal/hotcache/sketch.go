package hotcache

import (
	"hash/fnv"
	"sync"
	"time"
)

// Sketch is a decaying count-min sketch approximating per-key request
// frequency over a sliding window. Every half-window, all counters are
// halved (lazily, on the next access), so a key's estimate tracks its
// recent rate rather than its all-time count. Estimates only ever
// over-count (hash collisions), which for hot-key detection errs toward
// spreading load — the safe direction.
type Sketch struct {
	mu        sync.Mutex
	width     uint32
	rows      [][]uint32 // lazily allocated on first Observe
	window    time.Duration
	now       Clock
	lastDecay time.Duration
}

const sketchDepth = 4

// NewSketch builds a sketch with the given counters-per-row width and
// decay window. now may be nil for the monotonic wall clock.
func NewSketch(width int, window time.Duration, now Clock) *Sketch {
	if width < 16 {
		width = 16
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	if now == nil {
		now = monotonic()
	}
	s := &Sketch{width: uint32(width), window: window, now: now}
	s.lastDecay = now()
	return s
}

// Observe records one request for key and returns its updated estimate.
func (s *Sketch) Observe(key string) int {
	h1, h2 := sketchHash(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayLocked()
	if s.rows == nil {
		s.rows = make([][]uint32, sketchDepth)
	}
	est := ^uint32(0)
	for i := range s.rows {
		if s.rows[i] == nil {
			s.rows[i] = make([]uint32, s.width)
		}
		slot := &s.rows[i][(h1+uint32(i)*h2)%s.width]
		if *slot != ^uint32(0) {
			*slot++
		}
		if *slot < est {
			est = *slot
		}
	}
	return int(est)
}

// decayLocked halves every counter once per elapsed half-window; after a
// long idle stretch it clears instead of looping.
func (s *Sketch) decayLocked() {
	half := s.window / 2
	elapsed := s.now() - s.lastDecay
	if elapsed < half {
		return
	}
	steps := int(elapsed / half)
	s.lastDecay += time.Duration(steps) * half
	if steps >= 32 || s.rows == nil {
		for i := range s.rows {
			s.rows[i] = nil
		}
		return
	}
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] >>= uint(steps)
		}
	}
}

// sketchHash derives two independent 32-bit hashes from one FNV-1a pass,
// combined Kirsch–Mitzenmacher style for the per-row indexes.
func sketchHash(key string) (uint32, uint32) {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	v := h.Sum64()
	h2 := uint32(v >> 32)
	if h2 == 0 {
		h2 = 0x9e3779b9
	}
	return uint32(v), h2 | 1
}
