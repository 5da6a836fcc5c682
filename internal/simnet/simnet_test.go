package simnet

import (
	"math/rand"
	"testing"
	"time"

	"piersearch/internal/sim"
)

func TestDeliveryAfterLatency(t *testing.T) {
	s := sim.New(1)
	n := New(s, WithLatency(Constant(50*time.Millisecond)))
	var gotAt time.Duration
	var got Message
	n.Attach(2, func(m Message) {
		gotAt = s.Now()
		got = m
	})
	n.Send(Message{From: 1, To: 2, Kind: "ping", Payload: "hello", Size: 10})
	s.Run()
	if gotAt != 50*time.Millisecond {
		t.Errorf("delivered at %v, want 50ms", gotAt)
	}
	if got.Payload != "hello" || got.From != 1 {
		t.Errorf("got message %+v", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := sim.New(1)
	n := New(s, WithLatency(Constant(0)))
	n.Attach(1, func(Message) {})
	n.Send(Message{To: 1, Kind: "a", Size: 100})
	n.Send(Message{To: 1, Kind: "a", Size: 50})
	n.Send(Message{To: 1, Kind: "b", Size: 7})
	s.Run()
	st := n.Stats()
	if st.Messages != 3 || st.Bytes != 157 {
		t.Errorf("totals = %d msgs / %d bytes, want 3 / 157", st.Messages, st.Bytes)
	}
	if a := st.ByKind["a"]; a.Messages != 2 || a.Bytes != 150 {
		t.Errorf("kind a = %+v, want 2 msgs 150 bytes", a)
	}
	if b := st.ByKind["b"]; b.Messages != 1 || b.Bytes != 7 {
		t.Errorf("kind b = %+v, want 1 msg 7 bytes", b)
	}
}

func TestStatsSub(t *testing.T) {
	s := sim.New(1)
	n := New(s, WithLatency(Constant(0)))
	n.Attach(1, func(Message) {})
	n.Send(Message{To: 1, Kind: "a", Size: 10})
	s.Run()
	before := n.Stats()
	n.Send(Message{To: 1, Kind: "a", Size: 25})
	n.Send(Message{To: 1, Kind: "c", Size: 5})
	s.Run()
	d := n.Stats().Sub(before)
	if d.Messages != 2 || d.Bytes != 30 {
		t.Errorf("interval = %d msgs / %d bytes, want 2 / 30", d.Messages, d.Bytes)
	}
	if c := d.ByKind["c"]; c.Messages != 1 || c.Bytes != 5 {
		t.Errorf("interval kind c = %+v", c)
	}
}

func TestDetachedDestinationDrops(t *testing.T) {
	s := sim.New(1)
	n := New(s, WithLatency(Constant(time.Millisecond)))
	delivered := 0
	n.Attach(1, func(Message) { delivered++ })
	n.Send(Message{To: 1, Size: 1})
	n.Detach(1) // fails before delivery
	s.Run()
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0 after detach", delivered)
	}
	if n.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", n.Stats().Dropped)
	}
}

func TestAttachedAndDetach(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	n.Attach(9, func(Message) {})
	if !n.Attached(9) {
		t.Error("Attached(9) = false after Attach")
	}
	n.Detach(9)
	if n.Attached(9) {
		t.Error("Attached(9) = true after Detach")
	}
}

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (Constant(time.Second)).Delay(rng); d != time.Second {
		t.Errorf("Constant delay = %v", d)
	}
	u := Uniform{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Delay(rng)
		if d < u.Min || d > u.Max {
			t.Fatalf("Uniform delay %v outside [%v,%v]", d, u.Min, u.Max)
		}
	}
	// Degenerate uniform returns Min.
	if d := (Uniform{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}).Delay(rng); d != 5*time.Millisecond {
		t.Errorf("degenerate Uniform delay = %v", d)
	}
	w := DefaultWideArea()
	var sum time.Duration
	for i := 0; i < 1000; i++ {
		d := w.Delay(rng)
		if d < w.Base {
			t.Fatalf("WideArea delay %v below base %v", d, w.Base)
		}
		sum += d
	}
	mean := sum / 1000
	want := w.Base + w.Tail
	if mean < want/2 || mean > want*2 {
		t.Errorf("WideArea mean = %v, want about %v", mean, want)
	}
}

func TestMessagesDeliverInLatencyOrder(t *testing.T) {
	// With random latency, a later send can arrive earlier; the network
	// must not enforce FIFO between independent datagrams.
	s := sim.New(3)
	n := New(s, WithLatency(Uniform{Min: 0, Max: time.Second}))
	var order []int
	n.Attach(1, func(m Message) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 50; i++ {
		n.Send(Message{To: 1, Payload: i, Size: 1})
	}
	s.Run()
	if len(order) != 50 {
		t.Fatalf("delivered %d, want 50", len(order))
	}
	reordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Log("warning: no reordering observed (possible but unlikely)")
	}
}
