package experiments

// The small statistics toolkit the figures share: CDFs, bucket means, and
// the Series/Table formatting used to print each figure's data the way
// the paper plots it.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value at the first point with X == x, or NaN.
func (s *Series) YAt(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return math.NaN()
}

// CDF returns the empirical cumulative distribution of xs evaluated at the
// given thresholds: the percentage of samples <= t for each t.
func CDF(xs []float64, thresholds []float64) Series {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var s Series
	for _, t := range thresholds {
		n := sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1)))
		s.Add(t, 100*float64(n)/float64(len(sorted)))
	}
	return s
}

// FracAtMost returns the fraction of samples <= t.
func FracAtMost(xs []float64, t float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= t {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// BucketMeans groups (x, y) samples by x-bucket and returns the per-bucket
// mean of y against the bucket's mean x — the aggregation behind the
// paper's scatter-style Figures 4 and 7.
func BucketMeans(xs, ys []float64, edges []float64) Series {
	type acc struct {
		sx, sy float64
		n      int
	}
	buckets := make([]acc, len(edges)+1)
	idx := func(x float64) int {
		for i, e := range edges {
			if x <= e {
				return i
			}
		}
		return len(edges)
	}
	for i := range xs {
		b := idx(xs[i])
		buckets[b].sx += xs[i]
		buckets[b].sy += ys[i]
		buckets[b].n++
	}
	var s Series
	for _, b := range buckets {
		if b.n == 0 {
			continue
		}
		s.Add(b.sx/float64(b.n), b.sy/float64(b.n))
	}
	return s
}

// Table formats series into an aligned text table: the first column is X,
// one column per series. Rows are the union of all X values, sorted.
func Table(xLabel string, series ...Series) string {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	widths := make([]int, len(series))
	for i, s := range series {
		widths[i] = len(s.Name)
		if widths[i] < 10 {
			widths[i] = 10
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", xLabel)
	for i, s := range series {
		fmt.Fprintf(&b, " %*s", widths[i], s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14s", trimFloat(x))
		for i, s := range series {
			y := s.YAt(x)
			if math.IsNaN(y) {
				fmt.Fprintf(&b, " %*s", widths[i], "-")
			} else {
				fmt.Fprintf(&b, " %*s", widths[i], trimFloat(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
