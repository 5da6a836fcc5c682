// Package sim provides a deterministic discrete-event simulator with a
// virtual clock. All experiment-scale components (the Gnutella overlay, the
// simulated network, DHT churn) schedule work on a Sim rather than on wall
// time, which makes runs reproducible and lets a laptop model wide-area
// latencies faithfully.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. Events with equal firing times run in the
// order they were scheduled (FIFO), which keeps runs deterministic.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Sim is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls Run.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// New returns a simulator whose random source is seeded with seed, so that
// two simulations with the same seed and the same schedule of events produce
// identical results.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative
// delays are clamped to zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run fires events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with firing time <= t, then advances the clock to t.
func (s *Sim) RunUntil(t time.Duration) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}
