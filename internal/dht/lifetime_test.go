package dht

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedNodeIssuesNoRPCs pins the node's lifetime: once Close has run,
// the work a node does for itself — a republish tick, a refresh tick, a
// handoff queued before the close, a join — sends nothing. The subject runs
// at α = 1 with Config.Go queueing instead of spawning, so the handoff a new
// contact triggers waits in the queue until after Close.
func TestClosedNodeIssuesNoRPCs(t *testing.T) {
	net := NewLocalNetwork(1)
	var now atomic.Int64
	clock := func() time.Duration { return time.Duration(now.Load()) }
	var seeds []NodeInfo
	for i := 0; i < 6; i++ {
		info := NodeInfo{ID: StringID(fmt.Sprintf("peer-%d", i)), Addr: fmt.Sprintf("peer-%d", i)}
		net.Join(NewNode(info, net, Config{Clock: clock}))
		seeds = append(seeds, info)
	}
	var queued []func()
	rec := &probeRecorder{LocalNetwork: net}
	n := NewNode(NodeInfo{ID: StringID("subject"), Addr: "subject"}, rec,
		Config{Clock: clock, Alpha: 1, Go: func(fn func()) { queued = append(queued, fn) }})
	net.Join(n)
	if err := n.JoinNetwork(seeds); err != nil {
		t.Fatal(err)
	}
	n.StartMaintenance() // queues its two loops and turns on join handoff
	for i := 0; i < 20; i++ {
		n.LocalPut(StringID(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	late := NodeInfo{ID: StringID("late"), Addr: "late"}
	net.Join(NewNode(late, net, Config{Clock: clock}))
	n.HandleRPC(&Request{Kind: RPCPing, From: late}) // a new contact: queues a handoff
	if len(queued) != 3 {
		t.Fatalf("%d tasks queued, want the two maintenance loops and one handoff", len(queued))
	}

	// Everything is due: values are older than half the republish
	// interval and every bucket is past the refresh interval.
	now.Store(int64(time.Hour))
	if stale := n.table.StaleBuckets(n.info.RefreshInterval, maxRefreshPerTick); len(stale) == 0 {
		t.Fatal("no stale bucket to refresh; the refresh check would be vacuous")
	}
	rec.log = nil
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.RepublishTick(); v != 0 {
		t.Errorf("RepublishTick after Close pushed %d values", v)
	}
	if b, _ := n.RefreshTick(0); b != 0 {
		t.Errorf("RefreshTick after Close refreshed %d buckets", b)
	}
	queued[2]() // the handoff queued before Close
	if err := n.JoinNetwork(seeds); err == nil {
		t.Error("JoinNetwork after Close succeeded")
	}
	if len(rec.log) != 0 {
		t.Fatalf("closed node issued %d RPCs: %v", len(rec.log), rec.log)
	}
}

// TestCloseEndsBackgroundLoops pins that Close alone ends the maintenance
// loops and the janitor: their stop funcs are never called, yet every
// goroutine they started exits and the count settles back to baseline.
func TestCloseEndsBackgroundLoops(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var loops sync.WaitGroup
	goFn := func(fn func()) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			fn()
		}()
	}
	n := NewNode(NodeInfo{ID: StringID("n"), Addr: "a"}, NewLocalNetwork(1), Config{Go: goFn})
	n.StartMaintenance()
	n.StartJanitor(time.Hour)
	if got := runtime.NumGoroutine(); got < baseline+3 {
		t.Fatalf("%d goroutines after starting the loops, want at least %d", got, baseline+3)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	exited := make(chan struct{})
	go func() {
		loops.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("maintenance loops still running 5s after Close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
