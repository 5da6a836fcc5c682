package pier

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	s := String("abc")
	if s.K != KindString || s.Text() != "abc" {
		t.Errorf("String value: %#v", s)
	}
	i := Int(-42)
	if i.K != KindInt || i.Num() != -42 {
		t.Errorf("Int value: %#v", i)
	}
	b := Bytes([]byte{1, 2})
	if b.K != KindBytes || string(b.Raw()) != "\x01\x02" {
		t.Errorf("Bytes value: %#v", b)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{String("x"), String("x"), true},
		{String("x"), String("y"), false},
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Bytes([]byte("a")), Bytes([]byte("a")), true},
		{Bytes([]byte("a")), Bytes([]byte("b")), false},
		{String("1"), Int(1), false},
		{String(""), Bytes(nil), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	// Same payload bytes, different kinds, must hash apart.
	if String("a").Key() == Bytes([]byte("a")).Key() {
		t.Error("string and bytes keys collide")
	}
	if Int(0x61).Key() == String("a").Key() {
		t.Error("int and string keys collide")
	}
}

func TestValueKeyIntOrderFree(t *testing.T) {
	seen := map[string]int64{}
	for _, v := range []int64{-2, -1, 0, 1, 2, 1 << 40, -(1 << 40)} {
		k := Int(v).Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Int(%d) and Int(%d) share key", v, prev)
		}
		seen[k] = v
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	orig := Tuple{String("hello world"), Int(-12345), Bytes([]byte{0, 1, 2, 255}), String(""), Int(0)}
	buf := orig.Encode(nil)
	if len(buf) != orig.EncodedSize() {
		t.Errorf("EncodedSize = %d, len = %d", orig.EncodedSize(), len(buf))
	}
	got, used, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Errorf("consumed %d of %d bytes", used, len(buf))
	}
	if !got.Equal(orig) {
		t.Errorf("round trip: got %v want %v", got, orig)
	}
}

func TestTupleEncodeDecodeProperty(t *testing.T) {
	prop := func(s string, i int64, b []byte) bool {
		orig := Tuple{String(s), Int(i), Bytes(b)}
		buf := orig.Encode(nil)
		got, _, err := DecodeTuple(buf)
		return err == nil && got.Equal(orig) && orig.EncodedSize() == len(buf)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEncodedSizeIsArithmetic: EncodedSize is computed, not encoded — it
// agrees with Encode at every varint length boundary and allocates nothing
// (tuplesSize calls it per tuple on every cache Put).
func TestEncodedSizeIsArithmetic(t *testing.T) {
	long := strings.Repeat("x", 1<<14)
	cases := []Tuple{
		nil,
		{},
		{Int(0), Int(-1), Int(63), Int(64), Int(-64), Int(-65), Int(math.MaxInt64), Int(math.MinInt64)},
		{String(""), String(long[:127]), String(long[:128]), String(long)},
		{Bytes(nil), Bytes([]byte(long[:127])), Bytes([]byte(long[:128]))},
		{{K: Kind(9), S: "ignored"}}, // an unknown kind encodes as its kind byte alone
	}
	for i, c := range cases {
		if got, want := c.EncodedSize(), len(c.Encode(nil)); got != want {
			t.Errorf("case %d: EncodedSize = %d, len(Encode) = %d", i, got, want)
		}
	}
	wide := cases[3]
	if n := testing.AllocsPerRun(100, func() { _ = wide.EncodedSize() }); n != 0 {
		t.Errorf("EncodedSize allocates %v times per call, want 0", n)
	}
}

func TestDecodeTupleRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // huge count
		{1},            // one column, no kind byte
		{1, 0, 5, 'a'}, // string claims 5 bytes, has 1
		{1, 99},        // unknown kind
		{2, 1, 2},      // int then truncated column
	}
	for i, c := range cases {
		if _, _, err := DecodeTuple(c); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestDecodeTupleConsumesExactly(t *testing.T) {
	a := Tuple{String("a")}
	b := Tuple{Int(7)}
	buf := a.Encode(nil)
	buf = b.Encode(buf)
	gotA, used, err := DecodeTuple(buf)
	if err != nil || !gotA.Equal(a) {
		t.Fatalf("first tuple: %v %v", gotA, err)
	}
	gotB, _, err := DecodeTuple(buf[used:])
	if err != nil || !gotB.Equal(b) {
		t.Fatalf("second tuple: %v %v", gotB, err)
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{Bytes([]byte{1, 2}), String("x")}
	c := orig.Clone()
	c[0].B[0] = 99
	if orig[0].B[0] == 99 {
		t.Error("Clone shares byte storage")
	}
	if !c[1].Equal(orig[1]) {
		t.Error("Clone altered values")
	}
}

func TestTupleEqualLengthMismatch(t *testing.T) {
	if (Tuple{Int(1)}).Equal(Tuple{Int(1), Int(2)}) {
		t.Error("tuples of different arity equal")
	}
}
