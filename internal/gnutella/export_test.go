package gnutella

import (
	"fmt"
	"time"

	"piersearch/internal/bloom"
	"piersearch/internal/simnet"
)

// Only this package's tests use what follows.

// Alive reports whether an ultrapeer is currently attached.
func (n *Network) Alive(u HostID) bool { return n.net.Attached(simnet.NodeID(u)) }

// AllDownEpoch returns a schedule that takes every host down at from and
// brings every host back at until (when until > from and within the
// horizon) — the harshest correlated-failure scenario, used to pin that
// consumers survive a window with zero live hosts.
func AllDownEpoch(hosts int, horizon, from, until time.Duration) ChurnSchedule {
	s := ChurnSchedule{Hosts: hosts, Horizon: horizon}
	for h := 0; h < hosts; h++ {
		s.Events = append(s.Events, ChurnEvent{Host: h, At: from, Up: false})
		if until > from && until < horizon {
			s.Events = append(s.Events, ChurnEvent{Host: h, At: until, Up: true})
		}
	}
	s.sortEvents()
	return s
}

// Validate checks internal consistency: host indices in range, event times
// within [0, Horizon), events sorted, and per-host transitions strictly
// alternating starting from up.
func (s ChurnSchedule) Validate() error {
	state := make(map[int]bool, s.Hosts) // host -> currently up
	var prev time.Duration
	for i, ev := range s.Events {
		if ev.Host < 0 || ev.Host >= s.Hosts {
			return fmt.Errorf("gnutella: churn event %d: host %d out of range [0,%d)", i, ev.Host, s.Hosts)
		}
		if ev.At < 0 || ev.At >= s.Horizon {
			return fmt.Errorf("gnutella: churn event %d: time %v outside [0,%v)", i, ev.At, s.Horizon)
		}
		if ev.At < prev {
			return fmt.Errorf("gnutella: churn event %d: unsorted (at %v after %v)", i, ev.At, prev)
		}
		prev = ev.At
		up, seen := state[ev.Host]
		if !seen {
			up = true
		}
		if ev.Up == up {
			return fmt.Errorf("gnutella: churn event %d: host %d already %s", i, ev.Host, upness(up))
		}
		state[ev.Host] = ev.Up
	}
	return nil
}

func upness(up bool) string {
	if up {
		return "up"
	}
	return "down"
}

// AliveAt replays the schedule and reports whether host is up at time t
// (events at exactly t have taken effect).
func (s ChurnSchedule) AliveAt(host int, t time.Duration) bool {
	up := true
	for _, ev := range s.Events {
		if ev.At > t {
			break
		}
		if ev.Host == host {
			up = ev.Up
		}
	}
	return up
}

// Downtime returns the total down-duration of host over the schedule's
// horizon (a host down at the final event stays down until the horizon).
func (s ChurnSchedule) Downtime(host int) time.Duration {
	var total time.Duration
	up := true
	var wentDown time.Duration
	for _, ev := range s.Events {
		if ev.Host != host {
			continue
		}
		if up && !ev.Up {
			wentDown = ev.At
		} else if !up && ev.Up {
			total += ev.At - wentDown
		}
		up = ev.Up
	}
	if !up {
		total += s.Horizon - wentDown
	}
	return total
}

// ScheduleChurn applies the schedule to the overlay: event i detaches or
// re-attaches ultrapeer ups[ev.Host] at virtual time ev.At on the
// network's simulator. Hosts beyond len(ups) are ignored, so a schedule
// generated for a larger population can drive a smaller overlay.
func (n *Network) ScheduleChurn(s ChurnSchedule, ups []HostID) {
	for _, ev := range s.Events {
		if ev.Host >= len(ups) {
			continue
		}
		id := ups[ev.Host]
		up := ev.Up
		n.Sim.At(ev.At, func() {
			if up {
				n.AttachUltrapeer(id)
			} else {
				n.DetachUltrapeer(id)
			}
		})
	}
}

// qrpTables holds each ultrapeer's per-leaf keyword Bloom filters.
type qrpTables []map[HostID]*bloom.Filter

// BuildQRP builds per-leaf keyword Bloom filters and returns them with the
// total bytes leaves would ship to their ultrapeers — the Query Routing
// Protocol publishing cost footnote 2 of the paper describes.
func (l *Library) BuildQRP(bitsPerLeaf uint64, hashes uint32) (qrpTables, int) {
	qrp := make(qrpTables, l.topo.NumUltrapeers())
	total := 0
	for u := 0; u < l.topo.NumUltrapeers(); u++ {
		qrp[u] = make(map[HostID]*bloom.Filter)
		for _, leaf := range l.topo.UPLeaves[u] {
			f := bloom.New(bitsPerLeaf, hashes)
			for _, sf := range l.files[leaf] {
				for _, term := range l.tokenizer.Tokenize(sf.Name) {
					f.AddString(term)
				}
			}
			qrp[u][leaf] = f
			total += f.SizeBytes()
		}
	}
	return qrp, total
}

// Admits reports whether ultrapeer u's Bloom filter for leaf admits all
// query terms (true when leaf has no filter: no suppression).
func (q qrpTables) Admits(u, leaf HostID, terms []string) bool {
	f, ok := q[u][leaf]
	if !ok {
		return true
	}
	for _, term := range terms {
		if !f.TestString(term) {
			return false
		}
	}
	return true
}

// ReplicaCount returns, for each distinct filename, the number of replicas
// in the whole network — the ground truth the Perfect scheme and the
// model experiments use.
func (l *Library) ReplicaCount() map[string]int {
	counts := make(map[string]int)
	for _, fs := range l.files {
		for _, f := range fs {
			counts[f.Name]++
		}
	}
	return counts
}

// Stats exposes the underlying traffic counters.
// HorizonForFraction returns the smallest TTL whose reach from src covers
// at least frac of all ultrapeers, and the reach set at that TTL. The
// model experiments express horizons as a fraction of the network (§6.2's
// "horizon percent").
func HorizonForFraction(t *Topology, src HostID, frac float64) (int, []HostID) {
	depth := BFSDepths(t, src)
	want := int(frac * float64(t.NumUltrapeers()))
	if want < 1 {
		want = 1
	}
	maxD := 0
	for _, d := range depth {
		if d > maxD {
			maxD = d
		}
	}
	count := make([]int, maxD+2)
	for _, d := range depth {
		if d >= 0 {
			count[d]++
		}
	}
	cum := 0
	for ttl := 0; ttl <= maxD; ttl++ {
		cum += count[ttl]
		if cum >= want {
			return ttl, ReachSet(t, src, ttl)
		}
	}
	return maxD, ReachSet(t, src, maxD)
}

// DetachUltrapeer removes an ultrapeer from the overlay mid-run: queries
// in flight toward it are dropped by the network, and it no longer
// forwards or answers. Its leaves go dark with it (they publish their
// file lists only to their ultrapeer).
func (n *Network) DetachUltrapeer(u HostID) {
	n.net.Detach(simnet.NodeID(u))
}

// AttachUltrapeer re-attaches a previously detached ultrapeer (a rejoin;
// its protocol state survives, as LimeWire keeps its library on restart).
func (n *Network) AttachUltrapeer(u HostID) {
	st := n.ups[u]
	n.net.Attach(simnet.NodeID(u), func(m simnet.Message) { n.deliver(st, m) })
}
