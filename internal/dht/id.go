// Package dht implements a Kademlia-style distributed hash table: 160-bit
// node and key identifiers under the XOR metric, k-bucket routing tables
// with replacement caches and staleness-driven refresh, α-parallel
// iterative lookups with O(log N) hops, and a replicated multi-value store
// with provider-record republish so data survives churn.
//
// The paper's PIERSearch runs on the Bamboo DHT; this package provides the
// same contract PIER depends on — put()/get() by key, routing an application
// message to the node responsible for a key, and resilience to churn —
// using the Kademlia design (the repro hint notes Kademlia is the natural
// Go-ecosystem substitute). All messaging goes through a Transport so the
// same node code runs over the in-process simulated network and over TCP.
//
// The routing math itself — identifiers, k-bucket tables, and the lookup
// engine — lives in the transport-free subpackage routing; dht re-exports
// the identity types as aliases so existing callers are unaffected by the
// split, and composes the engine with storage, replication and the RPC
// vocabulary.
package dht

import (
	mrand "math/rand"

	"piersearch/internal/codec"
	"piersearch/internal/dht/routing"
)

// IDBytes is the identifier width in bytes (160 bits, as in Chord/Kademlia
// and the paper's DHT discussion).
const IDBytes = routing.IDBytes

// IDBits is the identifier width in bits.
const IDBits = routing.IDBits

// ID is a 160-bit node or key identifier.
type ID = routing.ID

// NodeInfo identifies a DHT participant: its identifier plus a
// transport-specific address.
type NodeInfo = routing.NodeInfo

// Table is a Kademlia routing table; see routing.Table.
type Table = routing.Table

// TableStats summarizes a routing table for stats dumps; see
// routing.TableStats.
type TableStats = routing.TableStats

// StringID hashes a string into the identifier space.
//
//lint:allow unusedexport tests across the module derive IDs with it
func StringID(s string) ID { return routing.StringID(s) }

// NamespacedID hashes a (namespace, key) pair into the identifier space.
// PIER uses namespaces to separate tables (e.g. "Item" vs "Inverted") that
// share the same resource key text.
func NamespacedID(namespace, key string) ID { return routing.NamespacedID(namespace, key) }

// RandomID returns a cryptographically random identifier, used for node IDs
// in real deployments.
func RandomID() ID { return routing.RandomID() }

// SeededID returns a deterministic pseudo-random identifier, used for
// reproducible simulations.
func SeededID(rng *mrand.Rand) ID { return routing.SeededID(rng) }

// Less reports whether a < b as big-endian 160-bit integers.
func Less(a, b ID) bool { return routing.Less(a, b) }

// Closer reports whether a is strictly closer to target than b under XOR.
func Closer(a, b, target ID) bool { return routing.Closer(a, b, target) }

// NewTable creates a routing table for the node with identifier self and
// bucket capacity k.
func NewTable(self ID, k int) *Table { return routing.NewTable(self, k) }

// ReadID decodes an ID from r.
func ReadID(r *codec.Reader) ID { return routing.ReadID(r) }

// ReadNodeInfo decodes a contact from r.
func ReadNodeInfo(r *codec.Reader) NodeInfo { return routing.ReadNodeInfo(r) }

// sortByDistance orders infos in place, nearest to target first.
func sortByDistance(infos []NodeInfo, target ID) []NodeInfo {
	return routing.SortByDistance(infos, target)
}
