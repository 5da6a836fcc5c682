package simnet

import (
	"fmt"
	"testing"
	"time"
)

func TestClockRunsTasksInEventTimeOrder(t *testing.T) {
	c := NewClock()
	var order []string
	err := c.Run(func() {
		c.Go(func() {
			c.Sleep(30 * time.Millisecond)
			order = append(order, "b")
		})
		c.Go(func() {
			c.Sleep(10 * time.Millisecond)
			order = append(order, "a")
		})
		c.Sleep(50 * time.Millisecond)
		order = append(order, "c")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
	if c.Now() != 50*time.Millisecond {
		t.Fatalf("Now = %v, want 50ms", c.Now())
	}
}

func TestClockTieBreaksByInsertion(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(c *Clock, record func(int)) error
	}{
		{"tasks", func(c *Clock, record func(int)) error {
			return c.Run(func() {
				for i := 0; i < 8; i++ {
					c.Go(func() {
						c.Sleep(time.Millisecond) // all wake at the same instant
						record(i)
					})
				}
			})
		}},
		{"callbacks", func(c *Clock, record func(int)) error {
			for i := 0; i < 8; i++ {
				c.At(time.Millisecond, func() { record(i) })
			}
			c.Drain()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var order []int
			if err := tc.run(NewClock(), func(i int) { order = append(order, i) }); err != nil {
				t.Fatal(err)
			}
			if len(order) != 8 {
				t.Fatalf("ran %d of 8 tied events", len(order))
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("tied events ran as %v, want insertion order", order)
				}
			}
		})
	}
}

func TestClockRunUntilAndDrain(t *testing.T) {
	c := NewClock()
	var fired []string
	record := func(s string) func() { return func() { fired = append(fired, s) } }
	c.At(time.Second, func() {
		fired = append(fired, "a")
		// Scheduled by a callback, and still due before the horizon.
		c.At(c.Now()+500*time.Millisecond, record("b"))
	})
	c.At(2*time.Second, record("edge")) // due exactly at the horizon
	c.At(3*time.Second, record("late"))
	woke := time.Duration(-1)
	c.Go(func() {
		c.Sleep(1200 * time.Millisecond)
		woke = c.Now()
	})

	c.RunUntil(2 * time.Second)
	if got := fmt.Sprint(fired); got != "[a b edge]" {
		t.Fatalf("RunUntil(2s) fired %s, want [a b edge]", got)
	}
	if woke != 1200*time.Millisecond {
		t.Fatalf("sleeping task woke at %v, want 1.2s", woke)
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now = %v after RunUntil(2s), want 2s", c.Now())
	}
	c.RunUntil(2500 * time.Millisecond) // nothing due: only time moves
	if len(fired) != 3 || c.Now() != 2500*time.Millisecond {
		t.Fatalf("empty RunUntil fired %v, Now = %v", fired, c.Now())
	}

	c.Drain()
	if got := fmt.Sprint(fired); got != "[a b edge late]" {
		t.Fatalf("Drain fired %s, want [a b edge late]", got)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now = %v after Drain, want 3s (the last event)", c.Now())
	}
}

func TestClockAtCallbacks(t *testing.T) {
	c := NewClock()
	var fired []time.Duration
	c.At(20*time.Millisecond, func() { fired = append(fired, c.Now()) })
	c.At(5*time.Millisecond, func() { fired = append(fired, c.Now()) })
	err := c.Run(func() { c.Sleep(30 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 20*time.Millisecond {
		t.Fatalf("callbacks fired at %v, want [5ms 20ms]", fired)
	}
}

func TestClockLeavesFutureCallbacksForNextRun(t *testing.T) {
	c := NewClock()
	fired := false
	c.At(time.Hour, func() { fired = true })
	if err := c.Run(func() { c.Sleep(time.Minute) }); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("callback beyond the workload's end fired anyway")
	}
	if c.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", c.Now())
	}
	// A later Run that sleeps past it picks it up.
	if err := c.Run(func() { c.Sleep(2 * time.Hour) }); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("queued callback did not fire in the next run")
	}
}

func TestClockNestedSpawns(t *testing.T) {
	c := NewClock()
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		count++
		if depth == 0 {
			return
		}
		c.Sleep(time.Millisecond)
		c.Go(func() { spawn(depth - 1) })
		c.Go(func() { spawn(depth - 1) })
	}
	if err := c.Run(func() { spawn(6) }); err != nil {
		t.Fatal(err)
	}
	if count != 127 { // full binary tree of depth 6
		t.Fatalf("ran %d tasks, want 127", count)
	}
}
