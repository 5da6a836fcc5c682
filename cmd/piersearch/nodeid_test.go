package main

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"piersearch/internal/telemetry"
)

// runDiskDaemon runs the daemon once over the disk store in dir, without
// -daemon, so it returns and closes its sockets. It returns the exit
// status and the id the daemon logged on "node listening" ("" if none).
func runDiskDaemon(t *testing.T, dir string) (int, string) {
	t.Helper()
	var mu sync.Mutex
	id := ""
	logger := telemetry.NewLogger(telemetry.SinkFunc(func(e telemetry.Event) {
		if e.Msg != "node listening" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for i, k := range e.Keys {
			if k == "id" {
				id = e.Vals[i]
			}
		}
	}), telemetry.LevelInfo)
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
