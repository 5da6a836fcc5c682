// Package routing is the Kademlia routing core of the DHT: 160-bit
// identifiers under the XOR metric, k-bucket routing tables with
// per-bucket LRU order, replacement caches and staleness tracking, and
// the α-parallel iterative lookup engine that converges on the closest
// nodes to a target in O(log n) hops — all k of them, or only as many as
// the caller will use (LookupConfig.Need).
//
// The package is deliberately transport- and storage-free: it never
// issues an RPC itself. Probing a contact is abstracted behind a
// ProbeFunc, and blocking is abstracted behind Spawn/Wait hooks, so the
// same lookup engine runs over real goroutines and sockets
// (cmd/piersearch), the in-process simulated network, and the
// virtual-time scheduler in internal/scale — which may only block through
// its clock. Package dht composes this core with storage, replication and
// the RPC vocabulary; it re-exports ID, NodeInfo and Table as type
// aliases so existing callers are unaffected by the split.
package routing
