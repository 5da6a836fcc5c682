package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// exactQuantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation: the oracle the bucket estimates are checked against.
func exactQuantile(xs []float64, q float64) float64 {
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

// histTolerance is the relative quantile error the geometry guarantees:
// one bucket's growth factor, plus slack for the midpoint estimate.
func histTolerance(perDecade int) float64 {
	return math.Pow(10, 1/float64(perDecade)) - 1 + 0.01
}

func checkQuantile(t *testing.T, h *Histogram, samples []float64, q float64, perDecade int) {
	t.Helper()
	exact := exactQuantile(samples, q)
	got := h.Quantile(q)
	tol := histTolerance(perDecade)
	if exact == 0 {
		if got > tol {
			t.Errorf("q=%v: got %v, want ~0", q, got)
		}
		return
	}
	if rel := math.Abs(got-exact) / exact; rel > tol {
		t.Errorf("q=%v: got %v, exact %v (rel err %.4f > %.4f)", q, got, exact, rel, tol)
	}
}

func TestHistogramQuantilesUniform(t *testing.T) {
	const perDecade = 40
	h := NewHistogram(1e-4, 100, perDecade)
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = 0.001 + rng.Float64()*0.999 // uniform on [1ms, 1s)
		h.Observe(samples[i])
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		checkQuantile(t, h, samples, q, perDecade)
	}
}

func TestHistogramQuantilesExponential(t *testing.T) {
	const perDecade = 40
	h := NewHistogram(1e-4, 100, perDecade)
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = 0.030 + rng.ExpFloat64()*0.040 // the wide-area latency shape
		h.Observe(samples[i])
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		checkQuantile(t, h, samples, q, perDecade)
	}
}

func TestHistogramQuantilesLognormal(t *testing.T) {
	const perDecade = 40
	h := NewHistogram(1e-4, 100, perDecade)
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = math.Exp(rng.NormFloat64()*0.8 - 2) // heavy-tailed
		h.Observe(samples[i])
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		checkQuantile(t, h, samples, q, perDecade)
	}
}

func TestHistogramMergeMatchesCombinedObservation(t *testing.T) {
	const perDecade = 40
	a := NewHistogram(1e-4, 100, perDecade)
	b := NewHistogram(1e-4, 100, perDecade)
	all := NewHistogram(1e-4, 100, perDecade)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		v := 0.001 + rng.Float64()*0.2
		a.Observe(v)
		all.Observe(v)
	}
	for i := 0; i < 5000; i++ {
		v := 0.5 + rng.Float64()*2
		b.Observe(v)
		all.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), all.Count())
	}
	if math.Abs(a.Sum()-all.Sum()) > 1e-9*all.Sum() {
		t.Fatalf("merged sum %v, want %v", a.Sum(), all.Sum())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged min/max %v/%v, want %v/%v", a.Min(), a.Max(), all.Min(), all.Max())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v, combined %v", q, got, want)
		}
	}
}

func TestHistogramMergeGeometryMismatch(t *testing.T) {
	a := NewHistogram(1e-4, 100, 40)
	b := NewHistogram(1e-3, 100, 40)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched geometry succeeded")
	}
	c := NewHistogram(1e-4, 100, 20)
	if err := a.Merge(c); err == nil {
		t.Fatal("merge of mismatched bucket count succeeded")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merge of nil: %v", err)
	}
}

func TestHistogramEmptyAndClamping(t *testing.T) {
	h := NewHistogram(1e-3, 10, 40)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	if !math.IsNaN(h.Min()) || !math.IsNaN(h.Max()) {
		t.Error("empty histogram min/max should be NaN")
	}
	// Below-range and above-range samples clamp into the edge buckets but
	// Min/Max keep the true extremes.
	h.Observe(1e-6)
	h.Observe(100)
	if h.Min() != 1e-6 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v, want 1e-6/100", h.Min(), h.Max())
	}
	if q := h.Quantile(0); q != 1e-3 {
		t.Errorf("q0 = %v, want clamp to first bucket edge 1e-3", q)
	}
	if q := h.Quantile(1); q < 10 || q > 100 {
		t.Errorf("q1 = %v, want within [hi, observed max]", q)
	}
}

func TestHistogramDeterminism(t *testing.T) {
	build := func() *Histogram {
		h := NewHistogram(1e-4, 100, 40)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 1000; i++ {
			h.Observe(0.001 + rng.Float64())
		}
		return h
	}
	a, b := build(), build()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v differs between identical builds", q)
		}
	}
}

// TestRegistryHistogramQuantiles: a registry histogram is the geometric
// one on a nanosecond scale, so WriteText's p50/p95/p99 land within one
// bucket (~6 %) of the exact quantiles.
func TestRegistryHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ns")
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 * (i + 1)) // 1 µs .. 1 ms
		h.Observe(samples[i])
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		name, val, _ := strings.Cut(l, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		got[name] = v
	}
	if got["lat_ns_count"] != 1000 || got["lat_ns_sum"] != 500500000 {
		t.Fatalf("count/sum = %v/%v", got["lat_ns_count"], got["lat_ns_sum"])
	}
	tol := histTolerance(40)
	for _, c := range []struct {
		name string
		q    float64
	}{{"lat_ns_p50", 0.50}, {"lat_ns_p95", 0.95}, {"lat_ns_p99", 0.99}} {
		exact := exactQuantile(samples, c.q)
		if rel := math.Abs(got[c.name]-exact) / exact; rel > tol {
			t.Errorf("%s = %v, exact %v (rel err %.4f > %.4f)", c.name, got[c.name], exact, rel, tol)
		}
	}

	// An empty registry histogram prints zeros, never NaN.
	empty := NewRegistry()
	empty.Histogram("idle_ns")
	b.Reset()
	if err := empty.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "idle_ns_count 0\nidle_ns_p50 0\nidle_ns_p95 0\nidle_ns_p99 0\nidle_ns_sum 0\n"
	if b.String() != want {
		t.Fatalf("empty histogram:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHistogramConcurrentObserveAndScrape: many goroutines observe while
// another scrapes /metrics-style; run under -race. Every observation must
// be counted once.
func TestHistogramConcurrentObserveAndScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_ns")
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scraped <- n
				return
			default:
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Error(err)
			}
			if strings.Contains(b.String(), "NaN") {
				t.Errorf("scrape printed NaN:\n%s", b.String())
			}
			n++
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(1 + w*each + i))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if n := <-scraped; n == 0 {
		t.Fatal("scraper never ran")
	}
	if c := h.Count(); c != workers*each {
		t.Fatalf("count = %d, want %d", c, workers*each)
	}
	if m := h.Max(); m != workers*each {
		t.Fatalf("max = %v, want %d", m, workers*each)
	}
}
