package dht

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordHandler is a slog.Handler that hands every record to fn.
type recordHandler func(slog.Record)

func (h recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h recordHandler) Handle(_ context.Context, r slog.Record) error {
	h(r)
	return nil
}
func (h recordHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h recordHandler) WithGroup(string) slog.Handler      { return h }

// TestJanitorReclaimsExpired pins the background soft-state sweep: TTL'd
// values must disappear from the store without any Get touching their
// keys — the reclamation long-running deployments rely on.
func TestJanitorReclaimsExpired(t *testing.T) {
	var now atomic.Int64
	cfg := Config{
		TTL:   time.Second,
		Clock: func() time.Duration { return time.Duration(now.Load()) },
	}
	net := NewLocalNetwork(1)
	node := NewNode(NodeInfo{ID: StringID("n"), Addr: "a"}, net, cfg)
	net.Join(node)

	for i := 0; i < 20; i++ {
		node.LocalPut(StringID(fmt.Sprintf("k%d", i)), []byte("payload"))
	}
	if values := node.Storage().ValueCount(); values != 20 {
		t.Fatalf("seeded %d values", values)
	}

	stop := node.StartJanitor(time.Millisecond)
	defer stop()

	// Values live while the virtual clock stands still.
	time.Sleep(20 * time.Millisecond)
	if values := node.Storage().ValueCount(); values != 20 {
		t.Fatalf("janitor removed live values: %d left", values)
	}

	// Advance past the TTL; the janitor must reclaim everything without
	// any Get calls.
	now.Store(int64(2 * time.Second))
	deadline := time.Now().Add(5 * time.Second)
	for {
		values, bytes := node.Storage().ValueCount(), node.Storage().Bytes()
		if values == 0 && bytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor left %d values / %d bytes", values, bytes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJanitorStopIdempotent(t *testing.T) {
	net := NewLocalNetwork(1)
	node := NewNode(NodeInfo{ID: StringID("n"), Addr: "a"}, net, Config{})
	stop := node.StartJanitor(time.Millisecond)
	stop()
	stop() // second call must not panic or block
}

func TestExpireNow(t *testing.T) {
	var now atomic.Int64
	cfg := Config{
		TTL:   time.Second,
		Clock: func() time.Duration { return time.Duration(now.Load()) },
	}
	net := NewLocalNetwork(1)
	node := NewNode(NodeInfo{ID: StringID("n"), Addr: "a"}, net, cfg)
	node.LocalPut(StringID("k"), []byte("v"))
	if removed := node.ExpireNow(); removed != 0 {
		t.Fatalf("ExpireNow removed %d live values", removed)
	}
	now.Store(int64(5 * time.Second))
	if removed := node.ExpireNow(); removed != 1 {
		t.Fatalf("ExpireNow removed %d, want 1", removed)
	}
}

// TestJanitorStatsExposeReclaimCount pins that sweep results are counted
// and logged instead of discarded: JanitorStats must report the entries
// reclaimed by both the ticker and explicit ExpireNow calls, and
// Config.Logger must see nonzero sweeps.
func TestJanitorStatsExposeReclaimCount(t *testing.T) {
	var now atomic.Int64
	var logged atomic.Int64
	cfg := Config{
		TTL:    time.Second,
		Clock:  func() time.Duration { return time.Duration(now.Load()) },
		Logger: slog.New(recordHandler(func(slog.Record) { logged.Add(1) })),
	}
	net := NewLocalNetwork(1)
	node := NewNode(NodeInfo{ID: StringID("n"), Addr: "a"}, net, cfg)
	net.Join(node)

	for i := 0; i < 7; i++ {
		node.LocalPut(StringID(fmt.Sprintf("k%d", i)), []byte("payload"))
	}
	now.Store(int64(2 * time.Second))
	if removed := node.ExpireNow(); removed != 7 {
		t.Fatalf("ExpireNow removed %d, want 7", removed)
	}
	if js := node.JanitorStats(); js.Reclaimed != 7 {
		t.Fatalf("JanitorStats.Reclaimed = %d, want 7", js.Reclaimed)
	}

	// The ticker path accumulates on top and logs its sweeps.
	for i := 0; i < 5; i++ {
		node.LocalPut(StringID(fmt.Sprintf("t%d", i)), []byte("payload"))
	}
	now.Store(int64(4 * time.Second))
	stop := node.StartJanitor(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		js := node.JanitorStats()
		if js.Reclaimed == 12 && js.Sweeps > 0 && logged.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor stats stuck at %+v (%d log lines)", js, logged.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNodeStorageInjection pins the Config.NewStorage seam: a node built
// with a custom factory routes every local operation through it, and
// Close closes it exactly once.
func TestNodeStorageInjection(t *testing.T) {
	custom := NewStore()
	cfg := Config{NewStorage: func(NodeInfo) (Storage, error) { return custom, nil }}
	net := NewLocalNetwork(1)
	node := NewNode(NodeInfo{ID: StringID("n"), Addr: "a"}, net, cfg)
	net.Join(node)

	if node.Storage() != Storage(custom) {
		t.Fatal("node did not adopt the injected storage")
	}
	node.LocalPut(StringID("k"), []byte("v"))
	if got := custom.Get(StringID("k"), 0); len(got) != 1 {
		t.Fatalf("injected store missed the put: %v", got)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// TestStoreShardsIndependent verifies the sweep and concurrent access
// cross shard boundaries correctly: keys landing in different buckets are
// all visible, counted, and expired.
func TestStoreShardsIndependent(t *testing.T) {
	s := NewStore()
	perShard := 4
	total := storeShards * perShard
	i := 0
	for b := 0; b < storeShards; b++ {
		for k := 0; k < perShard; k++ {
			var id ID
			id[0] = byte(b) // direct shard placement
			id[1] = byte(k)
			s.Put(id, StoredValue{Data: []byte{byte(i)}, Publisher: StringID("p"), TTL: time.Second})
			i++
		}
	}
	if s.Len() != total || s.ValueCount() != total {
		t.Fatalf("Len/ValueCount = %d/%d, want %d", s.Len(), s.ValueCount(), total)
	}
	if got := len(s.Keys()); got != total {
		t.Fatalf("Keys = %d", got)
	}
	if removed := s.Expire(2 * time.Second); removed != total {
		t.Fatalf("Expire removed %d, want %d", removed, total)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("post-sweep Len/Bytes = %d/%d", s.Len(), s.Bytes())
	}
}

// TestStoreShardedConcurrency hammers all shards from many goroutines
// under -race: puts, gets, sweeps, and stats must not interfere.
func TestStoreShardedConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var id ID
				id[0] = byte(i)
				id[1] = byte(w)
				s.Put(id, StoredValue{Data: []byte("x"), Publisher: StringID(fmt.Sprint(w))})
				s.Get(id, 0)
				if i%50 == 0 {
					s.Expire(0)
					s.Bytes()
					s.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.ValueCount() == 0 {
		t.Fatal("store empty after concurrent writes")
	}
}
