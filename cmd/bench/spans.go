package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call — the program itself is not instrumented.
// Spans of one client op share Op; Parent names the span of the enclosing
// boundary ("" for the client's own call).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs call it unconditionally.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) span(name string, op int, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		StartNs: start.Sub(r.origin).Nanoseconds(), EndNs: end.Sub(r.origin).Nanoseconds()})
	r.mu.Unlock()
}

// write saves the spans as one JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
