package bloom

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Sizes below follow m = −n ln p / (ln 2)² and k = (m/n) ln 2 for n
// elements at false-positive rate p.

func TestNoFalseNegatives(t *testing.T) {
	f := New(9586, 7) // n = 1 000, p = 0.01
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.TestString(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n, p = 10000, 0.01
	f := New(95851, 7)
	for i := 0; i < n; i++ {
		f.AddString(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if f.TestString(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 3*p {
		t.Errorf("false positive rate %.4f, want <= %.4f", rate, 3*p)
	}
	est := f.EstimatedFalsePositiveRate()
	if est > 3*p {
		t.Errorf("estimated fp rate %.4f, want <= %.4f", est, 3*p)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(1024, 4)
	for i := 0; i < 100; i++ {
		if f.TestString(fmt.Sprintf("x-%d", i)) {
			t.Fatalf("empty filter claimed membership of x-%d", i)
		}
	}
	if f.FillRatio() != 0 {
		t.Errorf("FillRatio = %v, want 0", f.FillRatio())
	}
}

func TestPropertyAddedAlwaysFound(t *testing.T) {
	f := New(1<<14, 5)
	prop := func(data []byte) bool {
		f.Add(data)
		return f.Test(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntersect(t *testing.T) {
	a := New(1024, 3)
	b := New(1024, 3)
	for _, s := range []string{"alpha", "both"} {
		a.AddString(s)
	}
	for _, s := range []string{"beta", "both"} {
		b.AddString(s)
	}
	if err := a.Intersect(b); err != nil {
		t.Fatal(err)
	}
	if !a.TestString("both") {
		t.Error("intersect lost a common element")
	}
	if a.TestString("alpha") || a.TestString("beta") {
		t.Error("intersect kept a one-sided element")
	}
	if a.count != 2 {
		t.Errorf("count = %d, want upper bound 2", a.count)
	}
}

func TestIntersectIncompatible(t *testing.T) {
	a := New(1024, 3)
	b := New(2048, 3)
	if err := a.Intersect(b); err == nil {
		t.Error("intersect of different sizes succeeded")
	}
	c := New(1024, 4)
	if err := a.Intersect(c); err == nil {
		t.Error("intersect of different k succeeded")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(4071, 6) // n = 500, p = 0.02
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d-%d", i, rng.Int63())
		f.AddString(keys[i])
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	again, err := g.MarshalBinary()
	if err != nil || !bytes.Equal(again, data) {
		t.Errorf("round trip re-encoded differently (err %v)", err)
	}
	for _, k := range keys {
		if !g.TestString(k) {
			t.Fatalf("round-tripped filter lost %q", k)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var f Filter
	if err := f.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer accepted")
	}
	g := New(128, 2)
	data, _ := g.MarshalBinary()
	if err := f.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Error("truncated buffer accepted")
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	for _, tc := range []struct{ m, k uint64 }{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.m, tc.k)
				}
			}()
			New(tc.m, uint32(tc.k))
		}()
	}
}

func TestSizeBytesMatchesBits(t *testing.T) {
	f := New(1000, 3) // rounds to 1024 bits = 128 bytes
	if f.Bits() != 1024 {
		t.Errorf("Bits = %d, want 1024", f.Bits())
	}
	if f.SizeBytes() != 128 {
		t.Errorf("SizeBytes = %d, want 128", f.SizeBytes())
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(10*(uint64(b.N)+1), 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(958506, 7)
	for i := 0; i < 100000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TestString(fmt.Sprintf("key-%d", i%200000))
	}
}

// TestMarshalBinaryGolden pins the wire bytes: pre-join filters travel in
// chain messages and probe replies, so the encoding may not drift.
func TestMarshalBinaryGolden(t *testing.T) {
	f := New(128, 3)
	f.AddString("madonna")
	f.AddString("prayer")
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const want = "8000000000000000" + "0300000000000000" + "0200000000000000" +
		"0000001008040000" + "0000000220000200"
	if got := hex.EncodeToString(data); got != want {
		t.Errorf("MarshalBinary = %s, want %s", got, want)
	}
}

// header builds a marshalled filter's 24-byte header followed by words
// zero words.
func header(m, k uint64, words int) []byte {
	b := binary.LittleEndian.AppendUint64(nil, m)
	b = binary.LittleEndian.AppendUint64(b, k)
	b = binary.LittleEndian.AppendUint64(b, 0)
	return append(b, make([]byte, 8*words)...)
}

func TestUnmarshalRejectsHostileGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"zero bits", header(0, 1, 0)},
		{"word count wraps", header(math.MaxUint64, 1, 0)},
		{"bits not a multiple of 64", header(65, 1, 2)},
		{"zero hashes", header(64, 0, 1)},
		{"hashes overflow uint32", header(64, 1<<32+1, 1)},
		{"length mismatch", header(128, 1, 1)},
	} {
		var f Filter
		if err := f.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	var f Filter
	if err := f.UnmarshalBinary(header(64, 1, 1)); err != nil {
		t.Errorf("minimal filter rejected: %v", err)
	}
}

// FuzzUnmarshalBinary feeds peer-shaped bytes to the decoder: whatever it
// accepts must answer TestString without panicking and re-encode to the
// same bytes.
func FuzzUnmarshalBinary(f *testing.F) {
	valid, _ := New(128, 3).MarshalBinary()
	f.Add(valid)
	f.Add(header(0, 1, 0))
	f.Add(header(math.MaxUint64, 1, 0))
	f.Add(header(math.MaxUint64-63, 1, 0))
	f.Add(header(65, 1, 2))
	f.Add(header(64, 0, 1))
	f.Add(header(64, math.MaxUint32, 1))
	f.Add(header(64, 1<<32+1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Filter
		if g.UnmarshalBinary(data) != nil {
			return
		}
		out, err := g.MarshalBinary()
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("re-encoded %x, want %x (err %v)", out, data, err)
		}
		// Test loops k times: a huge k is legal here (the pier decoder
		// bounds it) but too slow to run per input.
		if g.K() <= 64 {
			g.TestString("probe")
		}
	})
}
