package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 10}
	s := CDF(xs, []float64{0, 1, 2, 3, 10})
	wantY := []float64{0, 20, 60, 80, 100}
	for i, p := range s.Points {
		if math.Abs(p.Y-wantY[i]) > 1e-9 {
			t.Errorf("CDF at %v = %v, want %v", p.X, p.Y, wantY[i])
		}
	}
}

func TestFracAtMost(t *testing.T) {
	xs := []float64{0, 5, 10}
	if got := FracAtMost(xs, 5); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("FracAtMost = %v", got)
	}
	if FracAtMost(nil, 1) != 0 {
		t.Error("FracAtMost(nil) != 0")
	}
}

func TestBucketMeans(t *testing.T) {
	xs := []float64{1, 2, 10, 20}
	ys := []float64{10, 20, 100, 200}
	s := BucketMeans(xs, ys, []float64{5})
	if len(s.Points) != 2 {
		t.Fatalf("buckets = %d", len(s.Points))
	}
	if s.Points[0].X != 1.5 || s.Points[0].Y != 15 {
		t.Errorf("bucket 0 = %+v", s.Points[0])
	}
	if s.Points[1].X != 15 || s.Points[1].Y != 150 {
		t.Errorf("bucket 1 = %+v", s.Points[1])
	}
}

func TestSeriesYAt(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	if s.YAt(2) != 20 {
		t.Error("YAt(2) wrong")
	}
	if !math.IsNaN(s.YAt(99)) {
		t.Error("YAt(missing) should be NaN")
	}
}

func TestTable(t *testing.T) {
	a := Series{Name: "alpha"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := Series{Name: "beta"}
	b.Add(2, 0.5)
	out := Table("x", a, b)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("missing headers")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table rows = %d:\n%s", len(lines), out)
	}
	// x=1 row has '-' for beta.
	if !strings.Contains(lines[1], "-") {
		t.Errorf("missing value not dashed: %q", lines[1])
	}
	if !strings.Contains(lines[2], "0.50") {
		t.Errorf("fractional value misformatted: %q", lines[2])
	}
}
