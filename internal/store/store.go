package store

import (
	"path/filepath"

	"piersearch/internal/dht"
)

// Mem is the in-memory dht.Storage implementation: the 16-way
// lock-striped map that has always backed dht.Node. The code lives in
// package dht (as dht.Store) because dht must construct its default store
// without importing this package; Mem is the storage layer's name for it,
// so both engines are reachable from one place.
type Mem = dht.Store

// NewMem creates an empty in-memory store.
func NewMem() *Mem { return dht.NewStore() }

// DiskFactory returns a dht.Config.NewStorage factory that opens one Disk
// store per node under baseDir/<node id hex>. Cluster builders invoke it
// once per node, giving every node its own directory, WAL and segments.
//
//lint:allow unusedexport the pier and piersearch suites run disk-backed with it
func DiskFactory(baseDir string, opts Options) func(dht.NodeInfo) (dht.Storage, error) {
	return func(self dht.NodeInfo) (dht.Storage, error) {
		return Open(filepath.Join(baseDir, self.ID.String()), opts)
	}
}
