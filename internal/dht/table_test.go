package dht

import (
	"fmt"
	"math/rand"
	"testing"
)

func mkInfo(rng *rand.Rand, i int) NodeInfo {
	return NodeInfo{ID: SeededID(rng), Addr: fmt.Sprintf("n%d", i)}
}

func TestTableUpdateAndContains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	self := SeededID(rng)
	tab := NewTable(self, 4)
	n := mkInfo(rng, 0)
	if _, updated := tab.Update(n); !updated {
		t.Fatal("first Update rejected")
	}
	if !inTable(tab, n.ID) {
		t.Fatal("Contains false after Update")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1", tab.Len())
	}
}

func TestTableNeverStoresSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	self := SeededID(rng)
	tab := NewTable(self, 4)
	if _, updated := tab.Update(NodeInfo{ID: self}); updated {
		t.Error("table stored its own ID")
	}
	if tab.Len() != 0 {
		t.Errorf("Len = %d, want 0", tab.Len())
	}
}

func TestBucketFullReturnsLRUCandidate(t *testing.T) {
	// IDs with low byte 2 and 3 differ from an all-zero self in bit 1, so
	// both land in bucket 1. With k=1 the second insert must be refused
	// and the least-recently-seen contact offered for eviction.
	self := ID{}
	tab := NewTable(self, 1)
	mk := func(low byte, addr string) NodeInfo {
		id := ID{}
		id[IDBytes-1] = low
		return NodeInfo{ID: id, Addr: addr}
	}
	a, b := mk(2, "a"), mk(3, "b")
	if cand, updated := tab.Update(a); cand != nil || !updated {
		t.Fatal("insert into empty bucket failed")
	}
	cand, updated := tab.Update(b)
	if updated {
		t.Fatal("insert into full bucket claimed success")
	}
	if cand == nil || cand.ID != a.ID {
		t.Fatalf("eviction candidate = %v, want a", cand)
	}
	if inTable(tab, b.ID) {
		t.Fatal("full bucket admitted new contact")
	}
	// Refreshing a known contact updates its address without eviction.
	moved := mk(2, "a-moved")
	if cand, updated := tab.Update(moved); cand != nil || !updated {
		t.Fatal("refresh of known contact rejected")
	}
}

func TestEvictMakesRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	self := SeededID(rng)
	tab := NewTable(self, 1)
	var full NodeInfo
	var candidate *NodeInfo
	// Insert random nodes until one lands in an occupied bucket.
	for i := 0; i < 1000; i++ {
		n := mkInfo(rng, i)
		cand, updated := tab.Update(n)
		if cand != nil {
			full = n
			candidate = cand
			break
		}
		_ = updated
	}
	if candidate == nil {
		t.Fatal("never saturated a bucket")
	}
	tab.Evict(candidate.ID)
	if inTable(tab, candidate.ID) {
		t.Fatal("Evict left contact in table")
	}
	if _, updated := tab.Update(full); !updated {
		t.Fatal("Update rejected after Evict freed the bucket")
	}
}

func TestClosestOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	self := SeededID(rng)
	tab := NewTable(self, 20)
	for i := 0; i < 200; i++ {
		tab.Update(mkInfo(rng, i))
	}
	target := SeededID(rng)
	got := tab.Closest(target, 10)
	if len(got) != 10 {
		t.Fatalf("Closest returned %d, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if Closer(got[i].ID, got[i-1].ID, target) {
			t.Fatal("Closest not ordered nearest-first")
		}
	}
	// The nearest returned contact must be at least as close as every
	// contact in the table outside the result.
	inResult := map[ID]bool{}
	for _, g := range got {
		inResult[g.ID] = true
	}
	worst := got[len(got)-1]
	for _, c := range tab.Contacts() {
		if inResult[c.ID] {
			continue
		}
		if Closer(c.ID, worst.ID, target) {
			t.Fatal("Closest omitted a nearer contact")
		}
	}
}

func TestClosestFewerThanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := NewTable(SeededID(rng), 20)
	for i := 0; i < 3; i++ {
		tab.Update(mkInfo(rng, i))
	}
	if got := tab.Closest(SeededID(rng), 10); len(got) != 3 {
		t.Errorf("Closest returned %d, want all 3", len(got))
	}
}

func TestNewTablePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTable(_, 0) did not panic")
		}
	}()
	NewTable(ID{}, 0)
}

// inTable reports whether id is one of tab's contacts.
func inTable(tab *Table, id ID) bool {
	for _, c := range tab.Contacts() {
		if c.ID == id {
			return true
		}
	}
	return false
}
