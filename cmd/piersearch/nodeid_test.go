package main

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// recordHandler is a slog.Handler that hands every record to fn.
type recordHandler func(slog.Record)

func (h recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h recordHandler) Handle(_ context.Context, r slog.Record) error {
	h(r)
	return nil
}
func (h recordHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h recordHandler) WithGroup(string) slog.Handler      { return h }

// runDiskDaemon runs the daemon once over the disk store in dir, without
// -daemon, so it returns and closes its sockets. It returns the exit
// status and the id the daemon logged on "node listening" ("" if none).
func runDiskDaemon(t *testing.T, dir string) (int, string) {
	t.Helper()
	var mu sync.Mutex
	id := ""
	logger := slog.New(recordHandler(func(r slog.Record) {
		if r.Message != "node listening" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "id" {
				id = a.Value.String()
			}
			return true
		})
	}))
	code := runDaemon(context.Background(), daemonConfig{
		listen: "127.0.0.1:0", storeKind: "disk", dataDir: dir, logger: logger,
	})
	mu.Lock()
	defer mu.Unlock()
	return code, id
}

// TestRestartKeepsNodeID: a disk-backed daemon restarted on its data dir
// comes back under the same node ID, so the postings it recovers sit on
// the node that lookups for their keys walk to.
func TestRestartKeepsNodeID(t *testing.T) {
	dir := t.TempDir()
	code, first := runDiskDaemon(t, dir)
	if code != 0 || first == "" {
		t.Fatalf("first start: exit %d, id %q", code, first)
	}
	code, second := runDiskDaemon(t, dir)
	if code != 0 || second != first {
		t.Fatalf("restart: exit %d, id %q; want exit 0, id %q", code, second, first)
	}
}

// TestMalformedNodeIDRefused: a truncated ID file makes the daemon exit 1
// before it listens, and the file is left as it was.
func TestMalformedNodeIDRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, nodeIDFile)
	truncated := []byte("0123456789abcdef\n")
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, id := runDiskDaemon(t, dir); code != 1 || id != "" {
		t.Fatalf("truncated ID file: exit %d, listened as %q; want exit 1, no node", code, id)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != string(truncated) {
		t.Errorf("ID file after refusal = %q, %v; want it untouched", b, err)
	}
}
