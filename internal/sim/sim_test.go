package sim

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestTiesFireFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.At(time.Second, func() {
		s.After(500*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 1500*time.Millisecond {
		t.Errorf("nested After fired at %v, want 1.5s", at)
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Errorf("Now() = %v, want 0", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(time.Second, func() { fired++ })
	s.At(3*time.Second, func() { fired++ })
	s.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Errorf("fired = %d after Run, want 2", fired)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next models a
	// multi-hop message; total events and final clock must match.
	s := New(1)
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 10 {
			s.After(time.Millisecond, hop)
		}
	}
	s.After(time.Millisecond, hop)
	s.Run()
	if hops != 10 {
		t.Errorf("hops = %d, want 10", hops)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now() = %v, want 10ms", s.Now())
	}
}

func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if s.Pending() > 10000 {
			s.RunFor(time.Millisecond)
		}
	}
	s.Run()
}
