package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// no-ops, so packages hold counters unconditionally and skip the
// registry-nil branch on the hot path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-geometry log-scale histogram: bucket edges grow
// geometrically from lo to hi, so relative quantile error is bounded by
// the per-bucket growth factor regardless of where the mass lands. The
// scale harness records one histogram per replay phase and serializes
// only the derived quantiles, so the geometry (not the samples) is what
// two runs must agree on for byte-identical reports.
//
// Construct with NewHistogram or Registry.Histogram. A Histogram is safe
// for concurrent use. Observe and Count on a nil *Histogram are no-ops,
// so holders of an unregistered instrument skip the registry-nil branch.
type Histogram struct {
	mu      sync.Mutex
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
		panic(fmt.Sprintf("telemetry: bad histogram geometry lo=%v hi=%v perDecade=%d", lo, hi, bucketsPerDecade))
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
// bucket; values above hi into the last (Max still records the true
// extreme).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
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
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observed sample (NaN when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	return h.mx
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from the
// bucket counts: the geometric midpoint of the bucket holding the q-th
// sample, clamped into [min, max] so tiny histograms do not report
// values outside the observed range. NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
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

// Registry is a flat, name-keyed set of counters, gauges and
// histograms exported via WriteText. Registration is idempotent: the
// first caller creates the instrument, later callers share it. A nil
// *Registry returns nil instruments, which no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a sampling function evaluated at scrape time. The
// last registration for a name wins; fn must be safe to call from the
// scrape goroutine.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(1, 1e12, 40) // 1 ns to ~17 min at ~6 % resolution
		r.hists[name] = h
	}
	return h
}

// WriteText writes the registry as sorted "name value" lines — the
// format served at /metrics and logged by the SIGUSR1 snapshot.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type line struct {
		name string
		val  string
	}
	lines := make([]line, 0, len(r.counters)+len(r.gauges)+4*len(r.hists))
	for name, c := range r.counters {
		lines = append(lines, line{name, fmt.Sprintf("%d", c.Value())})
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	for name, h := range r.hists {
		n := h.Count()
		lines = append(lines, line{name + "_count", fmt.Sprintf("%d", n)})
		lines = append(lines, line{name + "_sum", fmt.Sprintf("%.0f", h.Sum())})
		q := func(p float64) string {
			if n == 0 {
				return "0" // an empty histogram prints 0, not NaN
			}
			return fmt.Sprintf("%.0f", h.Quantile(p))
		}
		lines = append(lines, line{name + "_p50", q(0.50)}, line{name + "_p95", q(0.95)}, line{name + "_p99", q(0.99)})
	}
	r.mu.Unlock()
	// Gauges sample outside the lock: their closures may take other
	// locks (routing table, hotcache shards) and must not deadlock
	// against a concurrent registration.
	for name, fn := range gauges {
		lines = append(lines, line{name, fmt.Sprintf("%d", fn())})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.val); err != nil {
			return err
		}
	}
	return nil
}
