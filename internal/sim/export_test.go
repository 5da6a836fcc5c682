package sim

import "time"

// Only this package's tests use what follows.

// Pending reports how many events are scheduled but not yet fired.
func (s *Sim) Pending() int { return len(s.events) }

// RunFor runs the simulation for d of virtual time from the current clock.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
