package simnet

import (
	"math/rand"
	"testing"
	"time"
)

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (Constant(time.Second)).Delay(rng); d != time.Second {
		t.Errorf("Constant delay = %v", d)
	}
	u := Uniform{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Delay(rng)
		if d < u.Min || d > u.Max {
			t.Fatalf("Uniform delay %v outside [%v,%v]", d, u.Min, u.Max)
		}
	}
	// Degenerate uniform returns Min.
	if d := (Uniform{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}).Delay(rng); d != 5*time.Millisecond {
		t.Errorf("degenerate Uniform delay = %v", d)
	}
	w := DefaultWideArea()
	var sum time.Duration
	for i := 0; i < 1000; i++ {
		d := w.Delay(rng)
		if d < w.Base {
			t.Fatalf("WideArea delay %v below base %v", d, w.Base)
		}
		sum += d
	}
	mean := sum / 1000
	want := w.Base + w.Tail
	if mean < want/2 || mean > want*2 {
		t.Errorf("WideArea mean = %v, want about %v", mean, want)
	}
}
