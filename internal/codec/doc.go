// Package codec is the shared binary wire codec for every hot path in the
// system: PIER's chain/probe/result messages, stored tuples and the DHT
// RPC frames in package wire. It replaces encoding/gob,
// whose per-stream type preamble (~300 B on a chain message) and reflective
// field encoding inflated exactly the byte counts the paper's §5/§7
// evaluation measures.
//
// # Wire format
//
// All encoders are append-style: they take a destination []byte and return
// it extended, so callers control allocation and can reuse scratch buffers
// (GetBuf/PutBuf expose a sync.Pool for the encode path). The primitives:
//
//   - unsigned integers: LEB128 uvarint (binary.AppendUvarint)
//   - signed integers:   zigzag varint (binary.AppendVarint)
//   - strings / byte strings: uvarint length prefix, then the raw payload
//   - fixed-width fields (hashes, node IDs): raw bytes, no prefix
//
// Every top-level message starts with a one-byte format version so formats
// can evolve without flag days; decoders reject unknown versions rather
// than misparse.
//
// # Delta-compressed sets
//
// Posting-list payloads (candidate fileID sets shipped along the join
// chain and returned from probes) are sorted and front-coded: each entry
// stores the length of the prefix it shares with its predecessor plus the
// differing suffix, and integer runs store zigzag deltas. The set codec
// itself lives next to the Value type in package pier
// (EncodeValueSet/DecodeValueSet); this package supplies the primitives
// (SharedPrefix, varints, the Reader).
//
// # Decoding
//
// Reader is a sticky-error sequential decoder: the first malformed field
// poisons the reader and every subsequent read returns a zero value, so
// message decoders read straight through and check Err once (plus Finish
// to reject trailing bytes). Length prefixes are validated against the
// remaining buffer before any allocation, so a hostile length cannot OOM
// the process, and Count bounds element counts the same way.
package codec
