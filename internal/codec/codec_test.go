package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf []byte
	buf = AppendByte(buf, 0xAB)
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, math.MaxUint64)
	buf = AppendVarint(buf, -1)
	buf = AppendVarint(buf, math.MinInt64)
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendBytes(buf, nil)
	buf = AppendString(buf, "héllo")
	buf = AppendString(buf, "")

	r := NewReader(buf)
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint max = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint min = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(u uint64, v int64, b []byte, s string) bool {
		var buf []byte
		buf = AppendUvarint(buf, u)
		buf = AppendVarint(buf, v)
		buf = AppendBytes(buf, b)
		buf = AppendString(buf, s)
		r := NewReader(buf)
		gu, gv := r.Uvarint(), r.Varint()
		gb, gs := r.Bytes(), r.String()
		if r.Finish() != nil {
			return false
		}
		return gu == u && gv == v && bytes.Equal(gb, b) && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationNeverPanics decodes every prefix of a valid stream; all
// must fail cleanly (sticky error), never panic or return trailing-byte
// confusion.
func TestTruncationNeverPanics(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendString(buf, "a longer string payload")
	buf = AppendBytes(buf, bytes.Repeat([]byte{7}, 33))
	for i := 0; i < len(buf); i++ {
		r := NewReader(buf[:i])
		r.Uvarint()
		_ = r.String()
		r.Bytes()
		if err := r.Finish(); err == nil {
			t.Fatalf("prefix %d decoded cleanly", i)
		}
	}
}

// TestHostileLengthRejected checks that a length prefix far beyond the
// buffer fails before allocating.
func TestHostileLengthRejected(t *testing.T) {
	buf := AppendUvarint(nil, 1<<50)
	buf = append(buf, "short"...)
	r := NewReader(buf)
	if got := r.Bytes(); got != nil {
		t.Errorf("hostile Bytes returned %d bytes", len(got))
	}
	if r.Err() == nil {
		t.Fatal("hostile length accepted")
	}

	r = NewReader(AppendUvarint(nil, 1<<50))
	if n := r.Count(); n != 0 || r.Err() == nil {
		t.Fatalf("hostile Count = %d, err = %v", n, r.Err())
	}
}

func TestFinishRejectsTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Byte() // poisons
	first := r.Err()
	if first == nil {
		t.Fatal("no error on empty read")
	}
	r.Uvarint()
	r.Bytes()
	if r.Err() != first {
		t.Error("later failure replaced the first error")
	}
}

func TestSharedPrefix(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abd", 2},
		{"abc", "abc", 3},
		{"abc", "abcdef", 3},
		{"xyz", "abc", 0},
	}
	for _, c := range cases {
		if got := SharedPrefix([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("SharedPrefix(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := SharedPrefixString(c.a, c.b); got != c.want {
			t.Errorf("SharedPrefixString(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBufPool(t *testing.T) {
	buf := GetBuf()
	if len(buf) != 0 {
		t.Fatalf("GetBuf len = %d", len(buf))
	}
	buf = append(buf, make([]byte, 4096)...)
	PutBuf(buf)
	again := GetBuf()
	if len(again) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(again))
	}
	PutBuf(again)
	// Oversized buffers are dropped, not pooled.
	PutBuf(make([]byte, maxPooledBuf+1))
}

func TestViewAliasesAndTakeBounds(t *testing.T) {
	buf := AppendBytes(nil, []byte("payload"))
	r := NewReader(buf)
	v := r.View()
	if string(v) != "payload" {
		t.Fatalf("View = %q", v)
	}
	if r.Finish() != nil {
		t.Fatal("clean stream rejected")
	}
	r = NewReader([]byte{1, 2})
	if r.Take(-1) != nil || r.Err() == nil {
		t.Fatal("negative Take accepted")
	}
}
