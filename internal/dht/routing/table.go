package routing

import (
	mrand "math/rand"
	"sort"
	"sync"
	"time"
)

// replacementCap bounds the per-bucket replacement cache: contacts seen
// while the bucket was full, kept most-recent-last so an eviction can
// promote the freshest one without waiting to re-learn it from traffic.
const replacementCap = 4

// UpdateOutcome classifies what Observe did with a contact.
type UpdateOutcome uint8

// Observe outcomes.
const (
	// OutcomeRejected: the contact is the table's owner or has a zero ID.
	OutcomeRejected UpdateOutcome = iota
	// OutcomeInserted: a genuinely new contact entered a bucket.
	OutcomeInserted
	// OutcomeRefreshed: an already-known contact moved to most-recent.
	OutcomeRefreshed
	// OutcomeFull: the bucket is full; the contact went to the replacement
	// cache and the least-recently-seen entry was offered for eviction.
	OutcomeFull
)

// bucket is one k-bucket: contacts ordered least-recently-seen first, as in
// the Kademlia paper, so stale contacts are evicted before fresh ones.
type bucket struct {
	entries []NodeInfo
	// repl is the replacement cache, most-recently-seen last.
	repl []NodeInfo
	// touched is the last virtual/wall time the bucket saw activity (an
	// update or a lookup in its range); bucket refresh targets buckets
	// whose touched is stale.
	touched time.Duration
}

func (b *bucket) indexOf(id ID) int {
	for i, e := range b.entries {
		if e.ID == id {
			return i
		}
	}
	return -1
}

// remember stashes n in the replacement cache (most-recent last, deduped).
func (b *bucket) remember(n NodeInfo) {
	for i, e := range b.repl {
		if e.ID == n.ID {
			copy(b.repl[i:], b.repl[i+1:])
			b.repl[len(b.repl)-1] = n
			return
		}
	}
	if len(b.repl) == replacementCap {
		copy(b.repl, b.repl[1:])
		b.repl = b.repl[:replacementCap-1]
	}
	b.repl = append(b.repl, n)
}

// TableCounters are the table's lifetime maintenance counters.
type TableCounters struct {
	Inserts    uint64 // new contacts admitted to a bucket
	Refreshes  uint64 // known contacts moved to most-recent
	DropsFull  uint64 // contacts sent to a replacement cache (bucket full)
	Evictions  uint64 // contacts removed by Evict
	Promotions uint64 // replacement-cache contacts promoted after an eviction
}

// BucketStat describes one non-empty bucket for stats dumps.
type BucketStat struct {
	Index        int // bucket index (higher = farther from the owner)
	Entries      int
	Replacements int
}

// TableStats is a point-in-time summary of the table plus its lifetime
// counters, the payload of the routing stats dump.
type TableStats struct {
	Contacts        int
	NonEmptyBuckets int
	Fill            []BucketStat // non-empty buckets, ascending index
	Counters        TableCounters
}

// Table is a Kademlia routing table: IDBits k-buckets keyed by shared-prefix
// length with the owner. It is safe for concurrent use: parallel lookups and
// RPC handlers observe contacts from many goroutines at once.
type Table struct {
	self  ID
	k     int
	clock func() time.Duration // nil: buckets are stamped with zero

	mu       sync.Mutex
	buckets  [IDBits]bucket
	counters TableCounters
}

// NewTable creates a routing table for the node with identifier self and
// bucket capacity k.
func NewTable(self ID, k int) *Table {
	if k <= 0 {
		panic("routing: bucket size must be positive")
	}
	return &Table{self: self, k: k}
}

// SetClock installs the time source used to stamp bucket activity for
// staleness tracking. nil (the default) stamps zero, which makes every
// bucket permanently stale — harmless unless refresh is driven.
func (t *Table) SetClock(clock func() time.Duration) { t.clock = clock }

func (t *Table) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Observe records contact with n and classifies the result. Known contacts
// move to the tail (most-recently-seen); new contacts are appended if the
// bucket has room. When a bucket is full the contact goes to the bucket's
// replacement cache and the least-recently-seen entry is returned so the
// caller may ping it and call Evict if it is dead — Kademlia's liveness
// check.
func (t *Table) Observe(n NodeInfo) (evictCandidate *NodeInfo, outcome UpdateOutcome) {
	idx := BucketIndex(t.self, n.ID)
	if idx < 0 || n.ID.IsZero() {
		return nil, OutcomeRejected // never store ourselves or a zero ID
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[idx]
	b.touched = now
	if i := b.indexOf(n.ID); i >= 0 {
		// Move to tail, refreshing the address in case it changed.
		copy(b.entries[i:], b.entries[i+1:])
		b.entries[len(b.entries)-1] = n
		t.counters.Refreshes++
		return nil, OutcomeRefreshed
	}
	if len(b.entries) < t.k {
		b.entries = append(b.entries, n)
		t.counters.Inserts++
		return nil, OutcomeInserted
	}
	b.remember(n)
	t.counters.DropsFull++
	lru := b.entries[0]
	return &lru, OutcomeFull
}

// Update is the compatibility form of Observe: the second result reports
// whether the table changed (the contact was inserted or refreshed).
func (t *Table) Update(n NodeInfo) (evictCandidate *NodeInfo, updated bool) {
	cand, out := t.Observe(n)
	return cand, out == OutcomeInserted || out == OutcomeRefreshed
}

// Evict removes id if present, making room for fresher contacts. If the
// bucket's replacement cache holds a recently seen contact, it is promoted
// into the freed slot so the bucket heals without waiting for new traffic.
func (t *Table) Evict(id ID) {
	idx := BucketIndex(t.self, id)
	if idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[idx]
	i := b.indexOf(id)
	if i < 0 {
		return
	}
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	t.counters.Evictions++
	if n := len(b.repl); n > 0 {
		promoted := b.repl[n-1]
		b.repl = b.repl[:n-1]
		b.entries = append(b.entries, promoted)
		t.counters.Promotions++
	}
}

// Len returns the total number of contacts.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lenLocked()
}

func (t *Table) lenLocked() int {
	n := 0
	for i := range t.buckets {
		n += len(t.buckets[i].entries)
	}
	return n
}

// Closest returns up to count contacts closest to target under XOR,
// ordered nearest first.
func (t *Table) Closest(target ID, count int) []NodeInfo {
	if count <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Bounded selection rather than copy-and-sort: replication paths call
	// this once per stored value, so each contact's distance is computed
	// exactly once and only the current best count are kept. Distances to
	// a fixed target are unique (IDs are unique), so the order is total.
	best := make([]NodeInfo, 0, count)
	dists := make([]ID, 0, count)
	for i := range t.buckets {
		for _, e := range t.buckets[i].entries {
			d := Distance(e.ID, target)
			if len(best) == count && !Less(d, dists[count-1]) {
				continue
			}
			pos := sort.Search(len(dists), func(j int) bool { return Less(d, dists[j]) })
			if len(best) < count {
				best = append(best, NodeInfo{})
				dists = append(dists, ID{})
			}
			copy(best[pos+1:], best[pos:])
			copy(dists[pos+1:], dists[pos:])
			best[pos] = e
			dists[pos] = d
		}
	}
	return best
}

// Contacts returns a copy of every contact in the table.
func (t *Table) Contacts() []NodeInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := make([]NodeInfo, 0, t.lenLocked())
	for i := range t.buckets {
		all = append(all, t.buckets[i].entries...)
	}
	return all
}

// NoteLookup stamps the bucket covering target as active: a lookup through
// a bucket's range keeps it warm, so refresh only targets genuinely idle
// regions of the ID space.
func (t *Table) NoteLookup(target ID) {
	idx := BucketIndex(t.self, target)
	if idx < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.buckets[idx].touched = now
	t.mu.Unlock()
}

// NoteRefreshed stamps bucket as just refreshed, whether or not the
// refresh lookup found anyone, so a dead region is not re-probed every
// tick.
func (t *Table) NoteRefreshed(bucket int) {
	if bucket < 0 || bucket >= IDBits {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.buckets[bucket].touched = now
	t.mu.Unlock()
}

// StaleBuckets returns up to max indexes of non-empty buckets whose last
// activity is older than maxAge, most-stale first. Empty buckets are
// skipped: with nothing known in the range there is no contact to route a
// refresh lookup through that subtree anyway, and lookups through
// neighbouring buckets repopulate it as a side effect.
func (t *Table) StaleBuckets(maxAge time.Duration, max int) []int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var stale []int
	for i := range t.buckets {
		b := &t.buckets[i]
		if len(b.entries) == 0 {
			continue
		}
		if now-b.touched >= maxAge {
			stale = append(stale, i)
		}
	}
	// Most-stale first; ties keep ascending index order.
	for i := 1; i < len(stale); i++ {
		for j := i; j > 0 && t.buckets[stale[j]].touched < t.buckets[stale[j-1]].touched; j-- {
			stale[j], stale[j-1] = stale[j-1], stale[j]
		}
	}
	if len(stale) > max {
		stale = stale[:max]
	}
	return stale
}

// RefreshTarget returns a random identifier inside bucket's range,
// suitable as a FindNode target to repopulate it.
func (t *Table) RefreshTarget(bucket int, rng *mrand.Rand) ID {
	return RandomIDInBucket(t.self, bucket, rng)
}

// Stats returns a point-in-time summary plus lifetime counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TableStats{Counters: t.counters}
	for i := range t.buckets {
		b := &t.buckets[i]
		if len(b.entries) == 0 && len(b.repl) == 0 {
			continue
		}
		if len(b.entries) > 0 {
			st.NonEmptyBuckets++
			st.Contacts += len(b.entries)
		}
		st.Fill = append(st.Fill, BucketStat{Index: i, Entries: len(b.entries), Replacements: len(b.repl)})
	}
	return st
}
