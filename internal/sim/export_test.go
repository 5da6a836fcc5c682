package sim

import "time"

// Only this package's tests use what follows.

// Processed reports how many events have fired so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int { return len(s.events) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Sim) Stop() { s.stopped = true }

// RunFor runs the simulation for d of virtual time from the current clock.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
