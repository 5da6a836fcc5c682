package gnutella

import (
	"reflect"
	"testing"
	"time"
)

func TestGenerateChurnDeterministicAndValid(t *testing.T) {
	cfg := ChurnConfig{
		Hosts:        200,
		Horizon:      10 * time.Minute,
		MeanSession:  2 * time.Minute,
		MeanDowntime: 30 * time.Second,
		Seed:         7,
	}
	a := GenerateChurn(cfg)
	b := GenerateChurn(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Events) == 0 {
		t.Fatal("expected churn events for a 2-minute mean session over 10 minutes")
	}
	// With short sessions and short downtimes, some host must be down at
	// some point but never the whole population.
	if f := a.MaxDownFrac(); f <= 0 || f >= 1 {
		t.Fatalf("MaxDownFrac = %v, want in (0, 1)", f)
	}
}

func TestChurnScheduleEmpty(t *testing.T) {
	var s ChurnSchedule // zero value: no hosts, no events
	if err := s.Validate(); err != nil {
		t.Fatalf("empty schedule invalid: %v", err)
	}
	if s.MaxDownFrac() != 0 {
		t.Errorf("empty schedule MaxDownFrac = %v, want 0", s.MaxDownFrac())
	}
	if !s.AliveAt(0, time.Minute) {
		t.Error("hosts should be up under the empty schedule")
	}
	if s.Downtime(3) != 0 {
		t.Error("empty schedule should have zero downtime")
	}

	// Churn disabled via zero MeanSession yields the same empty shape.
	disabled := GenerateChurn(ChurnConfig{Hosts: 50, Horizon: time.Minute})
	if len(disabled.Events) != 0 {
		t.Fatalf("disabled churn produced %d events", len(disabled.Events))
	}
	if !disabled.AliveAt(10, 30*time.Second) {
		t.Error("disabled churn should keep every host up")
	}
}

func TestChurnScheduleNoRejoin(t *testing.T) {
	s := GenerateChurn(ChurnConfig{
		Hosts:       100,
		Horizon:     20 * time.Minute,
		MeanSession: time.Minute,
		// MeanDowntime zero: once down, down forever.
		Seed: 3,
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	for _, ev := range s.Events {
		if ev.Up {
			t.Fatalf("host %d rejoined at %v despite zero MeanDowntime", ev.Host, ev.At)
		}
	}
	// Eventually (almost) everyone is down.
	if f := s.MaxDownFrac(); f < 0.9 {
		t.Fatalf("MaxDownFrac = %v, want >= 0.9 with no rejoins over 20 mean sessions", f)
	}
}

func TestChurnScheduleValidateRejects(t *testing.T) {
	bad := []ChurnSchedule{
		{Hosts: 2, Horizon: time.Minute, Events: []ChurnEvent{{Host: 5, At: time.Second, Up: false}}},
		{Hosts: 2, Horizon: time.Minute, Events: []ChurnEvent{{Host: 0, At: 2 * time.Minute, Up: false}}},
		{Hosts: 2, Horizon: time.Minute, Events: []ChurnEvent{{Host: 0, At: time.Second, Up: true}}}, // already up
		{Hosts: 2, Horizon: time.Minute, Events: []ChurnEvent{
			{Host: 0, At: 30 * time.Second, Up: false}, {Host: 1, At: time.Second, Up: false}, // unsorted
		}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d validated despite being invalid", i)
		}
	}
}
