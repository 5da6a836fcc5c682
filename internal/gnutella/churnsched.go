package gnutella

import (
	"math/rand"
	"sort"
	"time"
)

// This file defines churn *schedules*: precomputed, deterministic
// sequences of down/up events over a host population. The scale harness
// in internal/scale applies them to DHT nodes. Precomputing the whole
// schedule from a seed — rather than rolling dice as the simulation runs —
// is what keeps replays byte-reproducible: the same seed always yields the
// same event list regardless of how the consumer interleaves it with other
// work.

// ChurnEvent is one transition of one host: at time At the host goes down
// (Up=false) or comes back (Up=true).
type ChurnEvent struct {
	Host int           // index in [0, Hosts)
	At   time.Duration // virtual time of the transition
	Up   bool
}

// ChurnSchedule is a deterministic churn script over a host population.
// Events are sorted by time (ties by host index). All hosts start up at
// time zero; the zero value is the empty schedule (no churn).
type ChurnSchedule struct {
	Hosts   int
	Horizon time.Duration
	Events  []ChurnEvent
}

// ChurnConfig parameterises GenerateChurn.
type ChurnConfig struct {
	Hosts   int           // population size
	Horizon time.Duration // schedule length
	// MeanSession is the mean up-time between failures (exponential).
	// Zero disables churn entirely: the schedule comes back empty.
	MeanSession time.Duration
	// MeanDowntime is the mean time a failed host stays down before
	// rejoining (exponential). Zero means hosts never rejoin.
	MeanDowntime time.Duration
	Seed         int64
}

// GenerateChurn builds a deterministic schedule: each host alternates
// exponentially distributed up and down periods, starting up, until the
// horizon. The same config always produces the same schedule.
func GenerateChurn(cfg ChurnConfig) ChurnSchedule {
	s := ChurnSchedule{Hosts: cfg.Hosts, Horizon: cfg.Horizon}
	if cfg.Hosts <= 0 || cfg.Horizon <= 0 || cfg.MeanSession <= 0 {
		return s
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for h := 0; h < cfg.Hosts; h++ {
		t := time.Duration(rng.ExpFloat64() * float64(cfg.MeanSession))
		up := true
		for t < cfg.Horizon {
			s.Events = append(s.Events, ChurnEvent{Host: h, At: t, Up: !up})
			up = !up
			var mean time.Duration
			if up {
				mean = cfg.MeanSession
			} else {
				mean = cfg.MeanDowntime
				if mean <= 0 {
					break // never rejoins
				}
			}
			t += time.Duration(rng.ExpFloat64() * float64(mean))
		}
	}
	s.sortEvents()
	return s
}

func (s *ChurnSchedule) sortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].At != s.Events[j].At {
			return s.Events[i].At < s.Events[j].At
		}
		return s.Events[i].Host < s.Events[j].Host
	})
}

// MaxDownFrac returns the largest fraction of hosts simultaneously down at
// any instant of the schedule (0 for an empty schedule or population).
func (s ChurnSchedule) MaxDownFrac() float64 {
	if s.Hosts == 0 || len(s.Events) == 0 {
		return 0
	}
	down := make(map[int]bool, s.Hosts)
	maxDown := 0
	for i := 0; i < len(s.Events); {
		// Apply every event of this instant before sampling.
		j := i
		for j < len(s.Events) && s.Events[j].At == s.Events[i].At {
			if s.Events[j].Up {
				delete(down, s.Events[j].Host)
			} else {
				down[s.Events[j].Host] = true
			}
			j++
		}
		if len(down) > maxDown {
			maxDown = len(down)
		}
		i = j
	}
	return float64(maxDown) / float64(s.Hosts)
}
