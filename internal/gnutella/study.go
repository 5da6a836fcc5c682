package gnutella

// Study mode: analytic BFS over the ultrapeer graph. The measurement
// figures (4–8) need reach sets, message counts and first-match depths for
// tens of thousands of floods; computing them from the graph directly is
// exact for the paper's flooding model (duplicate-suppressed broadcast)
// and orders of magnitude cheaper than event simulation.

// BFSDepths returns the hop distance from src to every ultrapeer
// (-1 when unreachable).
func BFSDepths(t *Topology, src HostID) []int {
	depth := make([]int, t.NumUltrapeers())
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := []HostID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.UPAdj[u] {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

// ReachFirstK returns the first k ultrapeers in BFS order from src
// (including src). This models a flooding horizon expressed as network
// coverage rather than TTL: real floods stop early through dynamic-query
// abort, degree limits and churn, so a single query covers a bounded
// fraction of the overlay even at high TTL.
func ReachFirstK(t *Topology, src HostID, k int) []HostID {
	if k < 1 {
		k = 1
	}
	visited := make(map[HostID]bool, k)
	visited[src] = true
	out := []HostID{src}
	queue := []HostID{src}
	for len(queue) > 0 && len(out) < k {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.UPAdj[u] {
			if visited[v] {
				continue
			}
			visited[v] = true
			out = append(out, v)
			if len(out) == k {
				return out
			}
			queue = append(queue, v)
		}
	}
	return out
}

// ReachSet returns the ultrapeers within ttl hops of src (including src).
func ReachSet(t *Topology, src HostID, ttl int) []HostID {
	depth := BFSDepths(t, src)
	var out []HostID
	for u, d := range depth {
		if d >= 0 && d <= ttl {
			out = append(out, u)
		}
	}
	return out
}

// FloodCost is the cost/coverage of one duplicate-suppressed flood.
type FloodCost struct {
	TTL      int
	Messages int // query transmissions, duplicates included
	Visited  int // distinct ultrapeers receiving the query
}

// FloodCosts computes, for each TTL in 1..maxTTL, the message count and
// ultrapeer coverage of flooding from src. A node first reached at depth d
// forwards to all neighbours except the sender while d < TTL; transmissions
// to already-visited nodes are the duplicate overhead the paper's Figure 8
// quantifies.
func FloodCosts(t *Topology, src HostID, maxTTL int) []FloodCost {
	depth := BFSDepths(t, src)
	out := make([]FloodCost, maxTTL)
	for ttl := 1; ttl <= maxTTL; ttl++ {
		messages := len(t.UPAdj[src]) // origin sends to every neighbour
		visited := 1
		for u, d := range depth {
			if d <= 0 {
				continue
			}
			if d <= ttl {
				visited++
			}
			// Interior nodes (first reached before the horizon) forward to
			// everyone but the link they got the query from.
			if d < ttl {
				messages += len(t.UPAdj[u]) - 1
			}
		}
		out[ttl-1] = FloodCost{TTL: ttl, Messages: messages, Visited: visited}
	}
	return out
}

// FirstMatchDepth returns the BFS depth (from vantage) of the nearest
// ultrapeer whose subtree shares a file matching terms, or -1 if none
// does. This drives the first-result latency model: dynamic querying must
// expand the horizon round by round until this depth is inside it.
func FirstMatchDepth(t *Topology, lib *Library, vantage HostID, terms []string) int {
	depth := BFSDepths(t, vantage)
	best := -1
	for u, d := range depth {
		if d < 0 {
			continue
		}
		if best >= 0 && d >= best {
			continue
		}
		if len(lib.MatchAt(u, terms)) > 0 {
			best = d
		}
	}
	return best
}

// MatchesWithin returns every matching file reference within the reach set
// (the results a flood with that horizon would gather).
func MatchesWithin(lib *Library, reach []HostID, terms []string) []FileRef {
	var out []FileRef
	for _, u := range reach {
		out = append(out, lib.MatchAt(u, terms)...)
	}
	return out
}
