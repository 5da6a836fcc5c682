package routing

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNet is an in-memory Kademlia universe: every node holds a k-bucket
// table fed with every other node, so lookups traverse a realistic
// structured topology without any transport.
type fakeNet struct {
	nodes  []NodeInfo
	tables map[ID]*Table
	dead   map[ID]bool
	probes atomic.Int64
}

func newFakeNet(n, k int, seed int64) *fakeNet {
	rng := mrand.New(mrand.NewSource(seed))
	f := &fakeNet{tables: make(map[ID]*Table), dead: make(map[ID]bool)}
	for i := 0; i < n; i++ {
		f.nodes = append(f.nodes, NodeInfo{ID: SeededID(rng), Addr: fmt.Sprintf("node-%d", i)})
	}
	for _, n := range f.nodes {
		tab := NewTable(n.ID, k)
		for _, other := range f.nodes {
			tab.Update(other)
		}
		f.tables[n.ID] = tab
	}
	return f
}

func (f *fakeNet) probe(target ID) ProbeFunc {
	return func(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error) {
		f.probes.Add(1)
		if f.dead[to.ID] {
			return ProbeResult{}, errors.New("unreachable")
		}
		return ProbeResult{From: to, Closer: f.tables[to.ID].Closest(target, 8)}, nil
	}
}

// trueClosest returns the k closest live nodes to target across the whole
// universe — the ground truth a lookup should converge on.
func (f *fakeNet) trueClosest(target ID, k int) []NodeInfo {
	live := make([]NodeInfo, 0, len(f.nodes))
	for _, n := range f.nodes {
		if !f.dead[n.ID] {
			live = append(live, n)
		}
	}
	SortByDistance(live, target)
	if len(live) > k {
		live = live[:k]
	}
	return live
}

func (f *fakeNet) lookup(t *testing.T, target ID, alpha int) LookupResult {
	t.Helper()
	origin := f.nodes[0]
	return Run(context.Background(), LookupConfig{
		Target: target,
		Self:   origin.ID,
		K:      8,
		Alpha:  alpha,
		Seed:   f.tables[origin.ID].Closest(target, 8),
		Probe:  f.probe(target),
	})
}

func TestLookupFindsTrueClosest(t *testing.T) {
	f := newFakeNet(128, 8, 42)
	for trial := 0; trial < 10; trial++ {
		target := StringID(fmt.Sprintf("key-%d", trial))
		res := f.lookup(t, target, 1)
		truth := f.trueClosest(target, 8)
		if len(res.Closest) == 0 || res.Closest[0].ID != truth[0].ID {
			t.Fatalf("trial %d: nearest = %v, want %v", trial, res.Closest, truth[0])
		}
		found := make(map[ID]bool, len(res.Closest))
		for _, n := range res.Closest {
			found[n.ID] = true
		}
		hits := 0
		for _, n := range truth {
			if found[n.ID] {
				hits++
			}
		}
		if hits < 6 {
			t.Fatalf("trial %d: only %d of true top-8 found", trial, hits)
		}
		if res.Hops < 1 || res.Hops > 10 {
			t.Fatalf("trial %d: hops = %d, want logarithmic", trial, res.Hops)
		}
		for i := 1; i < len(res.Closest); i++ {
			if Closer(res.Closest[i].ID, res.Closest[i-1].ID, target) {
				t.Fatalf("trial %d: result not sorted by distance", trial)
			}
		}
	}
}

func TestLookupParallelFindsNearest(t *testing.T) {
	f := newFakeNet(128, 8, 43)
	for trial := 0; trial < 10; trial++ {
		target := StringID(fmt.Sprintf("pkey-%d", trial))
		res := f.lookup(t, target, 4)
		truth := f.trueClosest(target, 1)
		if len(res.Closest) == 0 || res.Closest[0].ID != truth[0].ID {
			t.Fatalf("trial %d: nearest = %v, want %v", trial, res.Closest[0], truth[0])
		}
	}
}

func TestLookupExcludesFailedNodes(t *testing.T) {
	f := newFakeNet(128, 8, 44)
	target := StringID("failure-key")
	// Kill the three true-closest nodes: the lookup must route around them.
	for _, n := range f.trueClosest(target, 3) {
		f.dead[n.ID] = true
	}
	res := f.lookup(t, target, 3)
	if res.Failed == 0 {
		t.Fatal("no failures recorded despite dead nodes on the path")
	}
	for _, n := range res.Closest {
		if f.dead[n.ID] {
			t.Fatalf("dead node %v in result", n)
		}
	}
	truth := f.trueClosest(target, 1)
	if len(res.Closest) == 0 || res.Closest[0].ID != truth[0].ID {
		t.Fatalf("nearest live = %v, want %v", res.Closest, truth[0])
	}
}

func TestLookupStopEarly(t *testing.T) {
	f := newFakeNet(128, 8, 45)
	target := StringID("stop-key")
	inner := f.probe(target)
	var stopped atomic.Int64
	probe := func(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error) {
		res, err := inner(ctx, to, depth)
		if err == nil && stopped.Add(1) >= 3 {
			res.Stop = true
		}
		return res, err
	}
	origin := f.nodes[0]
	res := Run(context.Background(), LookupConfig{
		Target: target,
		Self:   origin.ID,
		K:      8,
		Alpha:  1,
		Seed:   f.tables[origin.ID].Closest(target, 8),
		Probe:  probe,
	})
	if !res.Stopped {
		t.Fatal("Stop not honored")
	}
	if res.Probes != 3 {
		t.Fatalf("probes after stop = %d, want 3 (alpha=1)", res.Probes)
	}
}

func TestLookupCanceledContext(t *testing.T) {
	f := newFakeNet(64, 8, 46)
	target := StringID("cancel-key")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	origin := f.nodes[0]
	res := Run(ctx, LookupConfig{
		Target: target,
		Self:   origin.ID,
		K:      8,
		Alpha:  3,
		Seed:   f.tables[origin.ID].Closest(target, 8),
		Probe:  f.probe(target),
	})
	if res.Probes != 0 {
		t.Fatalf("probes after pre-canceled ctx = %d, want 0", res.Probes)
	}
}

func TestLookupEmptySeed(t *testing.T) {
	res := Run(context.Background(), LookupConfig{
		Target: StringID("x"),
		Probe: func(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error) {
			return ProbeResult{}, nil
		},
	})
	if len(res.Closest) != 0 || res.Probes != 0 {
		t.Fatalf("empty seed: %+v", res)
	}
}

func TestLookupSelfExcluded(t *testing.T) {
	f := newFakeNet(64, 8, 47)
	origin := f.nodes[0]
	// Target the origin itself: every responder knows origin, but it must
	// never appear as a candidate or in the result.
	res := f.lookup(t, origin.ID, 2)
	for _, n := range res.Closest {
		if n.ID == origin.ID {
			t.Fatal("lookup returned the caller itself")
		}
	}
}

// scripted is a hand-written topology for the convergence-width tests. The
// target is the zero ID and at(d) is the contact at XOR distance d from it,
// so "closer" reads straight off the numbers. closer[d] is what contact d
// answers; contacts in dead fail their probe.
type scripted struct {
	closer map[byte][]byte
	dead   map[byte]bool

	mu     sync.Mutex
	probed []byte // distances in probe order
}

func at(d byte) NodeInfo {
	var id ID
	id[IDBytes-1] = d
	return NodeInfo{ID: id, Addr: fmt.Sprintf("d%d", d)}
}

func ats(ds ...byte) []NodeInfo {
	out := make([]NodeInfo, len(ds))
	for i, d := range ds {
		out[i] = at(d)
	}
	return out
}

func dists(infos []NodeInfo) []byte {
	out := make([]byte, len(infos))
	for i, n := range infos {
		out[i] = n.ID[IDBytes-1]
	}
	return out
}

func (s *scripted) probe(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error) {
	d := to.ID[IDBytes-1]
	s.mu.Lock()
	s.probed = append(s.probed, d)
	s.mu.Unlock()
	if s.dead[d] {
		return ProbeResult{}, errors.New("unreachable")
	}
	return ProbeResult{From: to, Closer: ats(s.closer[d]...)}, nil
}

func (s *scripted) run(ctx context.Context, need, alpha int, seed ...byte) LookupResult {
	var self ID
	self[0] = 0xFF
	return Run(ctx, LookupConfig{
		Self:  self,
		K:     8,
		Need:  need,
		Alpha: alpha,
		Seed:  ats(seed...),
		Probe: s.probe,
	})
}

func TestLookupNeedProbesOnlyTheHead(t *testing.T) {
	s := &scripted{closer: map[byte][]byte{
		10: {5, 15},
		5:  {7, 10},
		// Never asked: 15 and the seeds from 20 up stay outside the three
		// closest, so what they would reveal must not matter.
		15: {1},
		20: {2},
	}}
	res := s.run(context.Background(), 3, 1, 10, 20, 30, 40, 50, 60, 70, 80)

	// Sequential probes make the order exact: the nearest seed, then each
	// closer contact an answer reveals, and nothing else.
	if got, want := s.probed, []byte{10, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("probed %v, want %v", got, want)
	}
	if res.Probes != 3 || res.Failed != 0 || res.Hops != 3 || res.Stopped {
		t.Fatalf("result %+v, want 3 probes, 0 failed, 3 hops", res)
	}
	// Still K results nearest-first; the first Need answered a probe, the
	// rest are unprobed fallbacks.
	if got, want := dists(res.Closest), []byte{5, 7, 10, 15, 20, 30, 40, 50}; !reflect.DeepEqual(got, want) {
		t.Fatalf("closest %v, want %v", got, want)
	}
}

func TestLookupNeedSlidesPastFailedHead(t *testing.T) {
	s := &scripted{
		closer: map[byte][]byte{10: {5}, 20: {10}, 30: {10}},
		dead:   map[byte]bool{5: true},
	}
	res := s.run(context.Background(), 3, 1, 10, 20, 30, 40, 50, 60, 70, 80)
	// 5 fails, so the three closest non-failed are 10, 20, 30: the window
	// slid one contact outward and 30 had to answer too.
	if got, want := s.probed, []byte{10, 5, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("probed %v, want %v", got, want)
	}
	if res.Probes != 4 || res.Failed != 1 {
		t.Fatalf("result %+v, want 4 probes, 1 failed", res)
	}
	if got, want := dists(res.Closest), []byte{10, 20, 30, 40, 50, 60, 70, 80}; !reflect.DeepEqual(got, want) {
		t.Fatalf("closest %v, want %v", got, want)
	}
}

// TestLookupNeedUnsetIsFullWidth pins the compatibility rule: Need 0, Need
// K and Need above K are the K-wide lookup every caller had before the
// field existed — same probes in the same order, same result.
func TestLookupNeedUnsetIsFullWidth(t *testing.T) {
	topo := map[byte][]byte{10: {5, 15}, 5: {7, 10}, 15: {1}, 20: {2}}
	seed := []byte{10, 20, 30, 40, 50, 60, 70, 80}
	// The K-wide walk: every one of the 8 closest answers, so 15 and 20 are
	// asked and reveal 1 and 2, which are asked in turn; 40 and beyond end
	// up outside the 8 closest and are not.
	wantProbed := []byte{10, 5, 7, 15, 1, 20, 2, 30}
	wantClosest := []byte{1, 2, 5, 7, 10, 15, 20, 30}
	for _, need := range []int{0, 8, 9, 100, -1} {
		s := &scripted{closer: topo}
		res := s.run(context.Background(), need, 1, seed...)
		if !reflect.DeepEqual(s.probed, wantProbed) {
			t.Errorf("Need %d: probed %v, want %v", need, s.probed, wantProbed)
		}
		if got := dists(res.Closest); !reflect.DeepEqual(got, wantClosest) {
			t.Errorf("Need %d: closest %v, want %v", need, got, wantClosest)
		}
		if res.Probes != len(wantProbed) || res.Hops != 3 || res.Failed != 0 {
			t.Errorf("Need %d: result %+v", need, res)
		}
	}

	// And over a structured 128-node universe with failures on the path.
	f := newFakeNet(128, 8, 48)
	target := StringID("width-key")
	f.dead[f.trueClosest(target, 1)[0].ID] = true
	run := func(need int) LookupResult {
		origin := f.nodes[0]
		return Run(context.Background(), LookupConfig{
			Target: target,
			Self:   origin.ID,
			K:      8,
			Need:   need,
			Alpha:  1,
			Seed:   f.tables[origin.ID].Closest(target, 8),
			Probe:  f.probe(target),
		})
	}
	full := run(0)
	for _, need := range []int{8, 20} {
		if got := run(need); !reflect.DeepEqual(got, full) {
			t.Errorf("Need %d: %+v, want the Need-0 result %+v", need, got, full)
		}
	}
	if narrow := run(3); narrow.Probes >= full.Probes {
		t.Errorf("Need 3 issued %d probes, full width %d", narrow.Probes, full.Probes)
	}
}

// settleGoroutines waits for the goroutine count to drop back to base: Run
// joins its helpers' work, but a helper goroutine's own exit can trail the
// return by a scheduling quantum.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
}

func TestLookupNeedStopAndCancelJoinHelpers(t *testing.T) {
	f := newFakeNet(128, 8, 49)
	target := StringID("narrow-stop-key")
	origin := f.nodes[0]
	cfg := LookupConfig{
		Target: target,
		Self:   origin.ID,
		K:      8,
		Need:   3,
		Alpha:  3,
		Seed:   f.tables[origin.ID].Closest(target, 8),
	}
	inner := f.probe(target)
	base := runtime.NumGoroutine()

	var answered atomic.Int64
	cfg.Probe = func(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error) {
		res, err := inner(ctx, to, depth)
		if err == nil && answered.Add(1) >= 2 {
			res.Stop = true
		}
		return res, err
	}
	res := Run(context.Background(), cfg)
	if !res.Stopped {
		t.Fatal("Stop not honored on a narrow lookup")
	}
	// The stop lands on the second answer; at most the α-1 probes already
	// in flight complete after it.
	if res.Probes > 2+cfg.Alpha-1 {
		t.Fatalf("probes after stop = %d, want at most %d", res.Probes, 2+cfg.Alpha-1)
	}
	settleGoroutines(t, base)

	// Cancel while all α probes are parked mid-RPC: Run must still return,
	// with every helper joined.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var parked atomic.Int64
	cfg.Probe = func(ctx context.Context, to NodeInfo, depth int) (ProbeResult, error) {
		if parked.Add(1) == int64(cfg.Alpha) {
			cancel()
		}
		<-ctx.Done()
		return ProbeResult{}, ctx.Err()
	}
	res = Run(ctx, cfg)
	if res.Probes != cfg.Alpha || res.Failed != cfg.Alpha {
		t.Fatalf("canceled lookup: %+v, want %d probes all failed", res, cfg.Alpha)
	}
	settleGoroutines(t, base)
}
