package dht

import (
	"sync"
	"time"
)

// StoredValue is one value published under a key. A key maps to a *set* of
// values (multi-value store): every replica of a file publishes its own
// Inverted tuple under the same keyword, so posting lists accumulate.
type StoredValue struct {
	Data      []byte
	Publisher ID            // node that created the value
	StoredAt  time.Duration // virtual or wall-relative store time
	TTL       time.Duration // 0 means no expiry
}

// expired reports whether v is past its TTL at time now.
func (v StoredValue) expired(now time.Duration) bool {
	return v.TTL > 0 && now > v.StoredAt+v.TTL
}

// Storage is the contract a node-local value store must satisfy. A key
// maps to a set of values deduplicated by (publisher, payload): Put with a
// matching pair refreshes StoredAt/TTL in place rather than appending.
// Implementations must be safe for concurrent use; the concurrent
// query/publish pipeline drives many operations against one node at once.
//
// Two implementations exist: the in-memory sharded map in this package
// (Store, the default) and the log-structured disk engine in
// internal/store (store.Disk). The interface lives here rather than in
// internal/store because package dht must construct its default store
// without importing the packages that implement the alternatives.
type Storage interface {
	// Put inserts v under key, refreshing an existing value with the same
	// publisher and identical payload. It reports whether the value was new.
	Put(key ID, v StoredValue) bool
	// Get returns the live values under key at time now, pruning expired
	// ones. The returned slice and its payloads must not alias internal
	// state the implementation will mutate.
	Get(key ID, now time.Duration) []StoredValue
	// Delete removes every value under key.
	Delete(key ID)
	// Keys returns every key currently present (values may be expired;
	// Get prunes lazily).
	Keys() []ID
	// Len returns the number of keys.
	Len() int
	// ValueCount returns the total number of stored values across keys.
	ValueCount() int
	// Bytes returns the approximate live payload bytes held.
	Bytes() int
	// Expire removes all values past their TTL at time now and returns how
	// many entries were reclaimed.
	Expire(now time.Duration) int
	// Close releases the store's resources (for the disk engine: flush the
	// write-ahead log, fsync, release the lock file). It must be
	// idempotent. In-memory stores may treat it as a no-op.
	Close() error
}

// storeShards is the number of lock shards. Keys are SHA-1-derived, so the
// leading ID byte is uniform and a power-of-two mask balances the shards.
const storeShards = 16

// storeShard is one independently locked bucket of the store. sums holds
// one fingerprint per stored value, in lockstep with values: Put's dedup
// scan compares 8-byte fingerprints and only falls back to full
// publisher/payload equality on a match. Posting lists under one keyword
// key share long payload prefixes, so without the fingerprint a republish
// wave's Puts degenerate into O(values) expensive memcmps each.
type storeShard struct {
	mu     sync.Mutex
	values map[ID][]StoredValue
	sums   map[ID][]uint64
	bytes  int
}

// fingerprint hashes a value's dedup identity (publisher, payload) with
// FNV-1a. Collisions are harmless — they just trigger the full compare.
func fingerprint(v StoredValue) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range v.Publisher {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range v.Data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// Store is the in-memory Storage implementation: the node-local key/value
// store used when Config.NewStorage is unset. Values are deduplicated by
// (publisher, payload) so republishing refreshes rather than duplicates.
// It is safe for concurrent use and sharded by ID prefix into
// independently locked buckets: the concurrent query/publish pipeline has
// many in-flight RPCs reading and writing one node's store at once, and a
// single mutex would serialise them all. Package internal/store re-exports
// it as store.Mem alongside the disk-backed store.Disk.
type Store struct {
	shards [storeShards]storeShard
}

var _ Storage = (*Store)(nil)

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].values = make(map[ID][]StoredValue)
		s.shards[i].sums = make(map[ID][]uint64)
	}
	return s
}

// shard returns the bucket owning key.
func (s *Store) shard(key ID) *storeShard {
	return &s.shards[key[0]&(storeShards-1)]
}

// Put inserts v under key, replacing an existing value with the same
// publisher and identical payload (refresh). It reports whether the value
// was new.
func (s *Store) Put(key ID, v StoredValue) bool {
	sh := s.shard(key)
	h := fingerprint(v)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vs := sh.values[key]
	ss := sh.sums[key]
	for i := range vs {
		if ss[i] == h && vs[i].Publisher == v.Publisher && string(vs[i].Data) == string(v.Data) {
			vs[i].StoredAt = v.StoredAt
			vs[i].TTL = v.TTL
			return false
		}
	}
	sh.values[key] = append(vs, v)
	sh.sums[key] = append(ss, h)
	sh.bytes += len(v.Data)
	return true
}

// Get returns the live values under key at time now, pruning expired ones.
func (s *Store) Get(key ID, now time.Duration) []StoredValue {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vs, ok := sh.values[key]
	if !ok {
		return nil
	}
	ss := sh.sums[key]
	live := vs[:0]
	liveSums := ss[:0]
	for i, v := range vs {
		if !v.expired(now) {
			live = append(live, v)
			liveSums = append(liveSums, ss[i])
		} else {
			sh.bytes -= len(v.Data)
		}
	}
	if len(live) == 0 {
		delete(sh.values, key)
		delete(sh.sums, key)
		return nil
	}
	sh.values[key] = live
	sh.sums[key] = liveSums
	out := make([]StoredValue, len(live))
	copy(out, live)
	return out
}

// Delete removes every value under key.
func (s *Store) Delete(key ID) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, v := range sh.values[key] {
		sh.bytes -= len(v.Data)
	}
	delete(sh.values, key)
	delete(sh.sums, key)
}

// Keys returns every key currently present (including ones whose values may
// all be expired; Get prunes lazily).
func (s *Store) Keys() []ID {
	var keys []ID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.values {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	return keys
}

// Len returns the number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.values)
		sh.mu.Unlock()
	}
	return n
}

// ValueCount returns the total number of stored values across keys.
func (s *Store) ValueCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, vs := range sh.values {
			n += len(vs)
		}
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the approximate payload bytes held.
func (s *Store) Bytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Close implements Storage. The in-memory store holds no external
// resources, so it is a no-op.
func (s *Store) Close() error { return nil }

// Expire removes all values past their TTL at time now and returns how many
// were removed. The sweep locks one shard at a time, so concurrent reads
// and writes to other shards proceed while it runs; nodes run it
// periodically (see Node.StartJanitor).
func (s *Store) Expire(now time.Duration) int {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, vs := range sh.values {
			ss := sh.sums[k]
			live := vs[:0]
			liveSums := ss[:0]
			for i, v := range vs {
				if v.expired(now) {
					removed++
					sh.bytes -= len(v.Data)
				} else {
					live = append(live, v)
					liveSums = append(liveSums, ss[i])
				}
			}
			if len(live) == 0 {
				delete(sh.values, k)
				delete(sh.sums, k)
			} else {
				sh.values[k] = live
				sh.sums[k] = liveSums
			}
		}
		sh.mu.Unlock()
	}
	return removed
}
