package routing

import (
	"context"
	"sync"
)

// ProbeResult is what one contact answered during a lookup.
type ProbeResult struct {
	// From is the responder as it identified itself. The engine does not
	// act on it — transports use it to update routing tables — but it
	// travels with the result so probe implementations can share one
	// closure between lookup and join paths.
	From NodeInfo
	// Closer are the contacts the responder considered closest to the
	// target; they become lookup candidates.
	Closer []NodeInfo
	// Stop asks the lookup to terminate early: a FindValue probe found
	// enough holders, so converging on the exact k closest is wasted work.
	Stop bool
}

// ProbeFunc queries one contact about the lookup target. depth is the hop
// depth of the probed contact (seeds are 1); implementations thread it into
// their traffic accounting. A non-nil error marks the contact failed for
// the remainder of the lookup.
type ProbeFunc func(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error)

// LookupConfig parameterizes one iterative lookup.
type LookupConfig struct {
	Target ID
	// Self is excluded from the candidate set: a node never probes itself.
	Self ID
	// K is how many closest non-failed contacts the result holds (default 20).
	K int
	// Need is the convergence width: the lookup ends once the Need closest
	// non-failed candidates have all answered. 0 (or anything above K) means
	// K, the classic Kademlia rule; a caller that will use only the nearest
	// few — a put storing on Replicate nodes — passes that count and saves
	// the probes to the rest.
	Need int
	// Alpha is the number of concurrent probe workers (default 3).
	Alpha int
	// Seed are the starting candidates, normally Table.Closest(Target, K).
	Seed []NodeInfo
	// Probe issues one query. Required.
	Probe ProbeFunc
	// Spawn starts a helper worker (default: go fn()). The virtual-time
	// scheduler substitutes clock.Go so workers are clock tasks.
	Spawn func(fn func())
	// Wait blocks until wake is closed or ctx is done (default: select on
	// both). The virtual-time scheduler substitutes a clock.Sleep poll so
	// a starved worker blocks only through the clock.
	Wait func(ctx context.Context, wake <-chan struct{})
}

// LookupResult is the outcome of one iterative lookup.
type LookupResult struct {
	// Closest holds up to K non-failed contacts, nearest to target first.
	// When the lookup converged, the first Need of them answered a probe;
	// the rest are candidates that were heard of but not necessarily
	// probed — fallbacks for a caller whose first choices fail later.
	Closest []NodeInfo
	// Hops is the maximum depth of any successful probe: 1 if only seeds
	// answered, d if a contact discovered d-1 merges deep answered.
	Hops int
	// Probes is the number of probes issued, Failed how many errored.
	Probes int
	Failed int
	// Stopped reports early termination via ProbeResult.Stop.
	Stopped bool
}

const (
	stateNew = iota
	stateInflight
	stateDone
	stateFailed
)

type candidate struct {
	info  NodeInfo
	depth int
	state int
}

type lookupState struct {
	cfg LookupConfig

	mu       sync.Mutex
	all      []*candidate // sorted nearest-to-target first
	known    map[ID]*candidate
	wake     chan struct{} // closed-and-replaced to broadcast state changes
	inflight int
	helpers  int
	hops     int
	probes   int
	failed   int
	done     bool
	stopped  bool
}

// Run executes one α-parallel iterative lookup and blocks until every
// worker has finished. Workers repeatedly probe the nearest unqueried
// candidate among the Need (default K) closest non-failed contacts seen so
// far, merging each answer's Closer set; the lookup converges when that
// frontier is exhausted with no probe in flight — every one of the Need
// closest has answered and none of them knew anyone closer. A starved
// worker waits rather than exits — an in-flight probe may still uncover
// closer candidates.
func Run(ctx context.Context, cfg LookupConfig) LookupResult {
	if cfg.Probe == nil {
		panic("routing: LookupConfig.Probe is required")
	}
	if cfg.K <= 0 {
		cfg.K = 20
	}
	if cfg.Need <= 0 || cfg.Need > cfg.K {
		cfg.Need = cfg.K
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 3
	}
	if cfg.Spawn == nil {
		cfg.Spawn = func(fn func()) { go fn() }
	}
	if cfg.Wait == nil {
		cfg.Wait = func(ctx context.Context, wake <-chan struct{}) {
			select {
			case <-wake:
			case <-ctx.Done():
			}
		}
	}
	s := &lookupState{
		cfg:   cfg,
		known: make(map[ID]*candidate),
		wake:  make(chan struct{}),
	}
	s.merge(cfg.Seed, 1)
	if len(s.all) == 0 {
		return LookupResult{}
	}
	s.helpers = cfg.Alpha - 1
	for i := 0; i < cfg.Alpha-1; i++ {
		cfg.Spawn(func() {
			s.worker(ctx)
			s.mu.Lock()
			s.helpers--
			s.broadcastLocked()
			s.mu.Unlock()
		})
	}
	s.worker(ctx)
	// Join the helpers before reporting: late probe results must not race
	// with the caller reading Closest. Helpers always terminate — probes
	// honor ctx and a finished lookup wakes every waiter — so this wait
	// ignores ctx and cannot spin.
	for {
		s.mu.Lock()
		if s.helpers == 0 {
			res := LookupResult{
				Closest: s.closestLocked(),
				Hops:    s.hops,
				Probes:  s.probes,
				Failed:  s.failed,
				Stopped: s.stopped,
			}
			s.mu.Unlock()
			return res
		}
		wake := s.wake
		s.mu.Unlock()
		// Joining workers must outlive a canceled query ctx: they still
		// hold in-flight RPC slots that have to drain into state.
		cfg.Wait(context.Background(), wake) //lint:allow ctxflow worker join must complete even after the query ctx is canceled
	}
}

func (s *lookupState) worker(ctx context.Context) {
	for {
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			return
		}
		if ctx.Err() != nil {
			s.finishLocked()
			s.mu.Unlock()
			return
		}
		c := s.nextLocked()
		if c == nil {
			if s.inflight == 0 {
				// Frontier exhausted and nothing pending: converged.
				s.finishLocked()
				s.mu.Unlock()
				return
			}
			wake := s.wake
			s.mu.Unlock()
			s.cfg.Wait(ctx, wake)
			continue
		}
		c.state = stateInflight
		s.inflight++
		s.probes++
		info, depth := c.info, c.depth
		s.mu.Unlock()

		res, err := s.cfg.Probe(ctx, info, depth)

		s.mu.Lock()
		s.inflight--
		if err != nil {
			c.state = stateFailed
			s.failed++
		} else {
			c.state = stateDone
			if depth > s.hops {
				s.hops = depth
			}
			if !s.done {
				s.mergeLocked(res.Closer, depth+1)
				if res.Stop {
					s.stopped = true
					s.finishLocked()
				}
			}
		}
		s.broadcastLocked()
		s.mu.Unlock()
	}
}

// nextLocked picks the nearest unqueried candidate among the Need closest
// non-failed contacts. Candidates beyond that window are not probed: if
// the lookup converges they were never among the Need closest, and if
// closer contacts fail the window slides to include them.
func (s *lookupState) nextLocked() *candidate {
	seen := 0
	for _, c := range s.all {
		if c.state == stateFailed {
			continue
		}
		seen++
		if seen > s.cfg.Need {
			return nil
		}
		if c.state == stateNew {
			return c
		}
	}
	return nil
}

func (s *lookupState) merge(infos []NodeInfo, depth int) {
	s.mu.Lock()
	s.mergeLocked(infos, depth)
	s.mu.Unlock()
}

func (s *lookupState) mergeLocked(infos []NodeInfo, depth int) {
	added := false
	for _, n := range infos {
		if n.ID.IsZero() || n.ID == s.cfg.Self {
			continue
		}
		if _, ok := s.known[n.ID]; ok {
			continue
		}
		c := &candidate{info: n, depth: depth}
		s.known[n.ID] = c
		s.all = append(s.all, c)
		added = true
	}
	if !added {
		return
	}
	target := s.cfg.Target
	// Insertion-style re-sort: the slice is already sorted up to the newly
	// appended tail, and the tail is short.
	for i := 1; i < len(s.all); i++ {
		for j := i; j > 0 && Closer(s.all[j].info.ID, s.all[j-1].info.ID, target); j-- {
			s.all[j], s.all[j-1] = s.all[j-1], s.all[j]
		}
	}
}

func (s *lookupState) closestLocked() []NodeInfo {
	out := make([]NodeInfo, 0, s.cfg.K)
	for _, c := range s.all {
		if c.state == stateFailed {
			continue
		}
		out = append(out, c.info)
		if len(out) == s.cfg.K {
			break
		}
	}
	return out
}

func (s *lookupState) finishLocked() {
	if !s.done {
		s.done = true
	}
	s.broadcastLocked()
}

func (s *lookupState) broadcastLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}
