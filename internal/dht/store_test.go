package dht

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func sv(data string, pub byte, at, ttl time.Duration) StoredValue {
	var p ID
	p[0] = pub
	return StoredValue{Data: []byte(data), Publisher: p, StoredAt: at, TTL: ttl}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	key := StringID("k")
	if !s.Put(key, sv("a", 1, 0, 0)) {
		t.Fatal("first Put not new")
	}
	got := s.Get(key, 0)
	if len(got) != 1 || string(got[0].Data) != "a" {
		t.Fatalf("Get = %v", got)
	}
	if s.Len() != 1 || s.ValueCount() != 1 || s.Bytes() != 1 {
		t.Errorf("Len/ValueCount/Bytes = %d/%d/%d", s.Len(), s.ValueCount(), s.Bytes())
	}
}

func TestStoreMultiValueDistinctPublishers(t *testing.T) {
	s := NewStore()
	key := StringID("k")
	s.Put(key, sv("a", 1, 0, 0))
	s.Put(key, sv("a", 2, 0, 0)) // same payload, different publisher
	s.Put(key, sv("b", 1, 0, 0)) // same publisher, different payload
	if got := s.Get(key, 0); len(got) != 3 {
		t.Fatalf("multi-value Get = %d values, want 3", len(got))
	}
}

func TestStoreRefreshUpdatesTimestamps(t *testing.T) {
	s := NewStore()
	key := StringID("k")
	s.Put(key, sv("a", 1, 0, time.Second))
	if s.Put(key, sv("a", 1, 5*time.Second, time.Minute)) {
		t.Fatal("refresh reported as new value")
	}
	got := s.Get(key, 0)
	if len(got) != 1 || got[0].StoredAt != 5*time.Second || got[0].TTL != time.Minute {
		t.Fatalf("refresh did not update metadata: %+v", got)
	}
}

func TestStoreTTLExpiry(t *testing.T) {
	s := NewStore()
	key := StringID("k")
	s.Put(key, sv("short", 1, 0, time.Second))
	s.Put(key, sv("long", 2, 0, time.Hour))
	s.Put(key, sv("forever", 3, 0, 0))

	// Within TTL: all live.
	if got := s.Get(key, 500*time.Millisecond); len(got) != 3 {
		t.Fatalf("before expiry: %d values", len(got))
	}
	// After the short TTL: lazily pruned on Get.
	got := s.Get(key, 2*time.Second)
	if len(got) != 2 {
		t.Fatalf("after expiry: %d values, want 2", len(got))
	}
	for _, v := range got {
		if string(v.Data) == "short" {
			t.Error("expired value survived")
		}
	}
}

func TestStoreExpireSweep(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		key := StringID(fmt.Sprintf("k%d", i))
		ttl := time.Duration(i+1) * time.Second
		s.Put(key, sv("v", byte(i), 0, ttl))
	}
	removed := s.Expire(5500 * time.Millisecond) // TTLs 1..5s expired
	if removed != 5 {
		t.Errorf("Expire removed %d, want 5", removed)
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d after sweep, want 5", s.Len())
	}
	// Keys with all values expired disappear entirely.
	if got := s.Get(StringID("k0"), 10*time.Second); got != nil {
		t.Errorf("expired key still served: %v", got)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore()
	key := StringID("k")
	s.Put(key, sv("abc", 1, 0, 0))
	s.Delete(key)
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("after Delete: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	s.Delete(key) // idempotent
}

func TestStoreKeys(t *testing.T) {
	s := NewStore()
	want := map[ID]bool{}
	for i := 0; i < 5; i++ {
		k := StringID(fmt.Sprintf("k%d", i))
		want[k] = true
		s.Put(k, sv("v", 1, 0, 0))
	}
	keys := s.Keys()
	if len(keys) != 5 {
		t.Fatalf("Keys = %d", len(keys))
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %s", k.Short())
		}
	}
}

func TestStoreBytesAccounting(t *testing.T) {
	// Property: Bytes always equals the sum of live payload lengths.
	s := NewStore()
	now := time.Duration(0)
	prop := func(key uint8, data []byte, pub uint8, expire bool) bool {
		k := StringID(fmt.Sprintf("k%d", key%8))
		ttl := time.Duration(0)
		if expire {
			ttl = time.Millisecond
		}
		s.Put(k, StoredValue{Data: data, Publisher: ID{pub}, StoredAt: now, TTL: ttl})
		now += 2 * time.Millisecond
		s.Expire(now)
		total := 0
		for _, key := range s.Keys() {
			for _, v := range s.Get(key, now) {
				total += len(v.Data)
			}
		}
		return total == s.Bytes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNodeTTLEndToEnd(t *testing.T) {
	// Values published with a TTL vanish from the network after expiry.
	var now time.Duration
	clock := func() time.Duration { return now }
	c, err := NewCluster(16, 3, Config{TTL: 10 * time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Nodes[0].PutContext(context.Background(), "ns", "ephemeral", []byte("v")); err != nil {
		t.Fatal(err)
	}
	values, _, err := c.Nodes[5].GetContext(context.Background(), "ns", "ephemeral")
	if err != nil || len(values) != 1 {
		t.Fatalf("before expiry: %v %v", values, err)
	}
	now = time.Minute
	values, _, err = c.Nodes[5].GetContext(context.Background(), "ns", "ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 0 {
		t.Fatalf("after expiry: %d values, want 0", len(values))
	}
}
