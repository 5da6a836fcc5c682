package simnet

import "time"

type Clock struct{ now time.Duration }

// Now returns the virtual instant: fine.
func (c *Clock) Now() time.Duration { return c.now }

// Stamp reads the machine clock beside the virtual one: flagged.
func Stamp() time.Time {
	return time.Now() // want `wall clock leaks into a deterministic package`
}
