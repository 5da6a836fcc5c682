package telemetry

// Only this package's tests use what follows.

// Spans returns every span currently in the ring, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// Dropped reports how many spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}
