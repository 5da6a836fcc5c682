package hotcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (f *fakeClock) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now += d
	f.mu.Unlock()
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(1<<20, 4, time.Minute, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 42, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 43, 10) // replace
	if v, _ := c.Get("a"); v.(int) != 43 {
		t.Fatalf("after replace Get(a) = %v", v)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	fc := &fakeClock{}
	c := NewCache(1<<20, 1, 10*time.Second, fc.Now)
	c.Put("postings", "v", 100)
	if _, ok := c.Get("postings"); !ok {
		t.Fatal("fresh entry missing")
	}
	fc.Advance(9 * time.Second)
	if _, ok := c.Get("postings"); !ok {
		t.Fatal("entry expired early")
	}
	fc.Advance(2 * time.Second) // now 11s > 10s TTL
	if _, ok := c.Get("postings"); ok {
		t.Fatal("expired entry served")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard, tiny budget: only the most recent entries survive.
	c := NewCache(3*(entryOverhead+2+100), 1, time.Minute, nil)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 100)
	}
	c.Get("k0") // refresh k0; k1 is now LRU
	c.Put("k3", 3, 100)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheOversizedValueNotCached(t *testing.T) {
	c := NewCache(1024, 1, time.Minute, nil)
	c.Put("huge", "v", 1<<20)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized value cached")
	}
}

func TestCacheInvalidateTag(t *testing.T) {
	c := NewCache(1<<20, 4, time.Minute, nil)
	c.Put("count|x", 1, 10, "idX")
	c.Put("join|x+y", "r", 10, "idX", "idY")
	c.Put("count|z", 2, 10, "idZ")
	if n := c.InvalidateTag("idX"); n != 2 {
		t.Fatalf("InvalidateTag(idX) = %d, want 2", n)
	}
	if _, ok := c.Get("count|x"); ok {
		t.Fatal("tagged entry survived")
	}
	if _, ok := c.Get("join|x+y"); ok {
		t.Fatal("multi-tag entry survived")
	}
	if _, ok := c.Get("count|z"); !ok {
		t.Fatal("unrelated entry purged")
	}
	// Tag index must not resurrect: re-inserting then invalidating again
	// works, and invalidating a dead tag is a no-op.
	if n := c.InvalidateTag("idX"); n != 0 {
		t.Fatalf("second InvalidateTag(idX) = %d, want 0", n)
	}
	c.Put("count|x", 3, 10, "idX")
	if n := c.InvalidateTag("idX"); n != 1 {
		t.Fatalf("third InvalidateTag(idX) = %d, want 1", n)
	}
}

// TestSingleflightOneExecution: N concurrent callers for one key run fn
// exactly once and all see its result. Run under -race in CI.
func TestSingleflightOneExecution(t *testing.T) {
	var g Group
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 16

	var wg sync.WaitGroup
	results := make([]any, n)
	errs := make([]error, n)
	shared := make([]bool, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, sh, err := g.Do(context.Background(), "hotkey", func() (any, error) {
				calls.Add(1)
				<-release // hold the flight open so others coalesce
				return "posting-set", nil
			})
			results[i], shared[i], errs[i] = v, sh, err
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// All goroutines launched; give waiters a beat to join the flight,
	// then let the leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != "posting-set" {
			t.Fatalf("caller %d got %v", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if g.Coalesced() != n-1 {
		t.Fatalf("Coalesced = %d, want %d", g.Coalesced(), n-1)
	}
}

func TestSingleflightSequentialCallsRunSeparately(t *testing.T) {
	var g Group
	calls := 0
	for i := 0; i < 3; i++ {
		_, shared, err := g.Do(context.Background(), "k", func() (any, error) {
			calls++
			return calls, nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (flights must not linger)", calls)
	}
}

func TestSingleflightErrorShared(t *testing.T) {
	var g Group
	boom := errors.New("owner unreachable")
	release := make(chan struct{})
	go g.Do(context.Background(), "k", func() (any, error) { //nolint:errcheck // checked via waiter
		<-release
		return nil, boom
	})
	// Wait until the flight is registered.
	for {
		g.mu.Lock()
		_, ok := g.flights["k"]
		g.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (any, error) { return "never", nil })
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want leader's error", err)
	}
}

func TestSingleflightWaiterCancel(t *testing.T) {
	var g Group
	release := make(chan struct{})
	defer close(release)
	go g.Do(context.Background(), "k", func() (any, error) { //nolint:errcheck // leader parked on purpose
		<-release
		return nil, nil
	})
	for {
		g.mu.Lock()
		_, ok := g.flights["k"]
		g.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.Do(ctx, "k", func() (any, error) { return nil, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: shared=%v err=%v", shared, err)
	}
}

func TestSketchHotDetection(t *testing.T) {
	fc := &fakeClock{}
	s := NewSketch(256, 10*time.Second, fc.Now)
	for i := 0; i < 19; i++ {
		s.Observe("madonna")
	}
	s.Observe("obscure-term")
	if got := s.Observe("madonna"); got < 20 {
		t.Fatalf("hot estimate = %d, want >= 20", got)
	}
	if got := s.Observe("never-seen"); got != 1 {
		t.Fatalf("cold estimate = %d, want 1", got)
	}
	// Decay: after a full window, the estimate has halved twice.
	fc.Advance(10 * time.Second)
	if got := s.Observe("madonna"); got > 6 {
		t.Fatalf("post-window estimate = %d, want <= 6", got)
	}
	// Long idle: counters reset entirely.
	fc.Advance(time.Hour)
	if got := s.Observe("madonna"); got != 1 {
		t.Fatalf("post-idle estimate = %d, want 1", got)
	}
}

func TestTierFanoutRoundRobin(t *testing.T) {
	tier := NewTier(Options{})
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		seen[tier.NextFanout(3)]++
	}
	if len(seen) != 3 || seen[0] != 3 || seen[1] != 3 || seen[2] != 3 {
		t.Fatalf("round robin spread = %v", seen)
	}
	if tier.Stats().FanoutReads != 6 {
		t.Fatalf("FanoutReads = %d, want 6", tier.Stats().FanoutReads)
	}
	if tier.NextFanout(1) != 0 {
		t.Fatal("single holder must stay at rank 0")
	}
}

func TestTierInvalidateID(t *testing.T) {
	tier := NewTier(Options{})
	id := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	tier.Data.Put("postings|x", "v", 10, string(id))
	if n := tier.InvalidateID(id); n != 1 {
		t.Fatalf("InvalidateID = %d, want 1", n)
	}
	if _, ok := tier.Data.Get("postings|x"); ok {
		t.Fatal("entry survived InvalidateID")
	}
}
