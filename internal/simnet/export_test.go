package simnet

// Only this package's tests use what follows.

// Sub returns the difference s - prev, for interval measurements.
func (s Stats) Sub(prev Stats) Stats {
	out := Stats{
		Messages: s.Messages - prev.Messages,
		Bytes:    s.Bytes - prev.Bytes,
		Dropped:  s.Dropped - prev.Dropped,
		ByKind:   make(map[string]KindStats, len(s.ByKind)),
	}
	for k, v := range s.ByKind {
		p := prev.ByKind[k]
		out.ByKind[k] = KindStats{Messages: v.Messages - p.Messages, Bytes: v.Bytes - p.Bytes}
	}
	return out
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats {
	out := n.stats
	out.ByKind = make(map[string]KindStats, len(n.stats.ByKind))
	for k, v := range n.stats.ByKind {
		out.ByKind[k] = v
	}
	return out
}
