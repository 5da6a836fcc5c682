package store

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"piersearch/internal/dht"
)

// Committed benchmarks for the storage engine: write throughput under the
// batched group commit (serial vs parallel vs fsync'd) and compaction
// throughput. CI uploads the results next to the codec and pipeline
// benchmarks.

const benchPayload = 100

func benchValue(i uint64) (dht.ID, dht.StoredValue) {
	var data [benchPayload]byte
	binary.BigEndian.PutUint64(data[:8], i)
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], i%4096)
	return dht.StringID(string(key[:])), dht.StoredValue{
		Data:      data[:],
		Publisher: dht.StringID("bench-pub"),
		StoredAt:  0,
	}
}

func benchDisk(b *testing.B, opts Options) *Disk {
	b.Helper()
	d, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

func BenchmarkDiskPutSerial(b *testing.B) {
	d := benchDisk(b, Options{CompactFraction: -1})
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, v := benchValue(uint64(i))
		d.Put(k, v)
	}
}

func BenchmarkDiskPutGroupCommit(b *testing.B) {
	// Parallel writers share commits: the group committer batches every
	// queued record into one write, so throughput scales past the
	// serial case.
	d := benchDisk(b, Options{CompactFraction: -1})
	b.SetBytes(benchPayload)
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k, v := benchValue(seq.Add(1))
			d.Put(k, v)
		}
	})
}

func BenchmarkDiskPutGroupCommitSynced(b *testing.B) {
	// With Sync on, every group commit fsyncs once for the whole batch —
	// the amortization that makes durable writes affordable.
	d := benchDisk(b, Options{CompactFraction: -1, Sync: true})
	b.SetBytes(benchPayload)
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k, v := benchValue(seq.Add(1))
			d.Put(k, v)
		}
	})
}

func BenchmarkMemPut(b *testing.B) {
	s := NewMem()
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, v := benchValue(uint64(i))
		s.Put(k, v)
	}
}

func BenchmarkDiskGet(b *testing.B) {
	d := benchDisk(b, Options{CompactFraction: -1})
	const prefill = 8192
	for i := 0; i < prefill; i++ {
		k, v := benchValue(uint64(i))
		d.Put(k, v)
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, _ := benchValue(uint64(i) % prefill)
		if got := d.Get(k, 0); len(got) == 0 {
			b.Fatal("benchmark value missing")
		}
	}
}

func BenchmarkCompaction(b *testing.B) {
	// One op = compacting a store where most values have expired.
	const n = 5000
	b.SetBytes(n * benchPayload)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDisk(b, Options{CompactFraction: -1, RotateBytes: 256 << 10})
		for j := 0; j < n; j++ {
			k, v := benchValue(uint64(j))
			v.TTL = time.Second
			d.Put(k, v)
		}
		now := time.Minute
		d.Expire(now)
		b.StartTimer()
		if err := d.Compact(now); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		d.Close()
		b.StartTimer()
	}
}

// TestCompactionReclaims90PctOfExpiredSpace pins the acceptance criterion:
// compacting after a mass expiry reclaims at least 90% of the space the
// expired entries occupied on disk.
func TestCompactionReclaims90PctOfExpiredSpace(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), Options{CompactFraction: -1, RotateBytes: 64 << 10})
	const expired = 2000
	const live = 20
	for i := 0; i < expired; i++ {
		d.Put(dht.StringID(fmt.Sprintf("exp-%d", i)),
			val("p", fmt.Sprintf("expired-payload-%06d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), 0, time.Second))
	}
	expiredBytes := int64(d.Bytes())
	for i := 0; i < live; i++ {
		d.Put(dht.StringID(fmt.Sprintf("live-%d", i)),
			val("p", fmt.Sprintf("live-payload-%06d", i), 0, 0))
	}
	before := d.DiskSize()
	now := time.Minute
	if n := d.Expire(now); n != expired {
		t.Fatalf("Expire = %d, want %d", n, expired)
	}
	if err := d.Compact(now); err != nil {
		t.Fatal(err)
	}
	after := d.DiskSize()
	reclaimed := before - after
	if reclaimed < expiredBytes*9/10 {
		t.Fatalf("compaction reclaimed %d of %d expired payload bytes (<90%%); disk %d -> %d",
			reclaimed, expiredBytes, before, after)
	}
	for i := 0; i < live; i++ {
		if got := d.Get(dht.StringID(fmt.Sprintf("live-%d", i)), now); len(got) != 1 {
			t.Fatalf("live-%d lost during compaction", i)
		}
	}
}
