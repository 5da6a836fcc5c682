package dht

import (
	"math/rand"
	"testing"
	"testing/quick"

	"piersearch/internal/dht/routing"
)

func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := SeededID(rng), SeededID(rng)
		if routing.Distance(a, a) != (ID{}) {
			t.Fatal("d(a,a) != 0")
		}
		if routing.Distance(a, b) != routing.Distance(b, a) {
			t.Fatal("distance not symmetric")
		}
	}
}

func TestDistanceTriangleProperty(t *testing.T) {
	// XOR metric satisfies d(a,c) <= d(a,b) XOR-combined; the standard
	// Kademlia property is d(a,b) ^ d(b,c) == d(a,c).
	prop := func(a, b, c ID) bool {
		ab, bc, ac := routing.Distance(a, b), routing.Distance(b, c), routing.Distance(a, c)
		for i := range ab {
			if ab[i]^bc[i] != ac[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLessTotalOrder(t *testing.T) {
	a := ID{}
	b := ID{}
	b[IDBytes-1] = 1
	if !Less(a, b) || Less(b, a) || Less(a, a) {
		t.Error("Less is not a strict order on adjacent IDs")
	}
	c := ID{}
	c[0] = 1 // high byte dominates
	if !Less(b, c) {
		t.Error("Less ignored big-endian byte order")
	}
}

func TestBucketIndex(t *testing.T) {
	self := ID{}
	if got := routing.BucketIndex(self, self); got != -1 {
		t.Errorf("routing.BucketIndex(self, self) = %d, want -1", got)
	}
	// Differ only in the lowest bit -> bucket 0.
	other := ID{}
	other[IDBytes-1] = 1
	if got := routing.BucketIndex(self, other); got != 0 {
		t.Errorf("lowest-bit difference -> bucket %d, want 0", got)
	}
	// Differ in the highest bit -> bucket IDBits-1.
	other = ID{}
	other[0] = 0x80
	if got := routing.BucketIndex(self, other); got != IDBits-1 {
		t.Errorf("highest-bit difference -> bucket %d, want %d", got, IDBits-1)
	}
}

func TestBucketIndexRange(t *testing.T) {
	prop := func(a, b ID) bool {
		idx := routing.BucketIndex(a, b)
		if a == b {
			return idx == -1
		}
		return idx >= 0 && idx < IDBits
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNamespacedIDSeparatesNamespaces(t *testing.T) {
	a := NamespacedID("Item", "key")
	b := NamespacedID("Inverted", "key")
	if a == b {
		t.Error("namespaces collide")
	}
	// Prefix ambiguity must not collide: ("ab","c") vs ("a","bc").
	if NamespacedID("ab", "c") == NamespacedID("a", "bc") {
		t.Error("namespace/key boundary ambiguous")
	}
	if NamespacedID("Item", "key") != a {
		t.Error("NamespacedID not deterministic")
	}
}

func TestSeededIDDeterministic(t *testing.T) {
	a := SeededID(rand.New(rand.NewSource(9)))
	b := SeededID(rand.New(rand.NewSource(9)))
	if a != b {
		t.Error("SeededID differs for identical seeds")
	}
}

func TestRandomIDsDistinct(t *testing.T) {
	seen := map[ID]bool{}
	for i := 0; i < 100; i++ {
		id := RandomID()
		if seen[id] {
			t.Fatal("RandomID produced a duplicate")
		}
		seen[id] = true
	}
}

func TestIsZeroAndString(t *testing.T) {
	var z ID
	if !z.IsZero() {
		t.Error("zero ID not IsZero")
	}
	id := StringID("hello")
	if id.IsZero() {
		t.Error("hash of hello is zero")
	}
	if len(id.String()) != 40 || len(id.Short()) != 8 {
		t.Errorf("String/Short lengths = %d/%d", len(id.String()), len(id.Short()))
	}
}

func TestCloserConsistentWithDistance(t *testing.T) {
	prop := func(a, b, target ID) bool {
		got := Closer(a, b, target)
		want := Less(routing.Distance(a, target), routing.Distance(b, target))
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
