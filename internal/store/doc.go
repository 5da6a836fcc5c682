// Package store holds the node-local storage engines behind the
// dht.Storage interface: Mem, the in-memory lock-striped map (the default,
// re-exported from package dht), and Disk, a log-structured disk-backed
// engine that survives restarts without republishing and holds posting
// sets larger than RAM. PIER's soft-state catalog is exactly the workload
// a log-structured layout favors: writes are append-only refreshes,
// reads are point lookups by key, and expiry makes garbage collection a
// first-class operation.
//
// # On-disk layout
//
//	<dir>/LOCK              advisory lock; one process per store directory
//	<dir>/wal-%016d.log     the active write-ahead log (exactly one)
//	<dir>/seg-%016d.seg     immutable sealed segments
//	<dir>/seg-%016d.tmp     compaction output in progress (removed on open)
//	<dir>/node-id           cmd/piersearch's node ID (not read by the store)
//
// The WAL and segments share one file format, so sealing a WAL into a
// segment is a rename. The decimal in the name is the file's sequence
// number; replay applies files in ascending sequence order, which is the
// order records were written. Compaction reserves a sequence number
// between its inputs and the new active WAL so replay order is preserved
// across a crash.
//
// # File format
//
// Encoding uses the primitives of internal/codec (uvarint/varint lengths
// and integers, raw 20-byte IDs) plus a per-record CRC:
//
//	file    := header record*
//	header  := magic "PSLG" (4 bytes) | version (1 byte, currently 1)
//	record  := len uvarint | payload | crc32c(payload) (4 bytes, big endian)
//	payload := op 0x01 | key (20) | publisher (20) |
//	           storedAt varint | ttl varint | data (uvarint len + bytes)
//	         | op 0x02 | key (20)                            (delete)
//
// A record is the unit of atomicity: replay verifies the CRC before
// applying and stops at the first truncated or corrupt record, truncating
// a torn tail (the signature of a crash mid-commit) off the log. A torn
// tail can only lose writes that were never acknowledged: the group
// committer writes (and, with Options.Sync, fsyncs) a record before its
// Put returns.
//
// # Engine
//
// Puts are batched by a single committer goroutine (group commit): each
// Put encodes its record, hands it to the committer, and blocks until the
// batch containing it hits the file. The in-memory index maps key to the
// set of live entries — (file, offset, length, publisher, StoredAt, TTL)
// — so Get reads payloads straight off the segment files with ReadAt and
// the resident cost per value is tens of bytes regardless of payload
// size. The index is lock-striped sixteen ways, mirroring Mem.
//
// When the WAL passes Options.RotateBytes it is sealed (renamed) into a
// segment. Background compaction triggers when the dead-byte fraction of
// the sealed segments passes Options.CompactFraction: it seals the active
// WAL, streams every live, unexpired entry into one new segment, atomically
// renames it into place, repoints the index, and deletes the inputs.
// Superseded refreshes, deleted keys and TTL-expired postings are dropped,
// reclaiming their space.
//
// # Restart semantics
//
// StoredAt/TTL are measured on the owning node's clock, which restarts
// with the process. Open therefore rebases every recovered value's
// StoredAt to Options.Now() at open: recovery acts as a refresh, granting
// survivors at most one extra TTL. That slack is safe for PIER soft
// state — publishers re-put on their republish cycle and the janitor
// reclaims anything stale one TTL after the restart at the latest — and
// it errs on the side of answering queries right after a restart instead
// of dropping replicas that were live when the node went down.
package store
