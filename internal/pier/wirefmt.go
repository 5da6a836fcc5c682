package pier

// This file is the engine's wire format: hand-rolled binary codecs for
// every message the distributed query plans ship between nodes, built on
// the append-style primitives of internal/codec. It replaces encoding/gob,
// whose per-stream type preamble and reflective field encoding inflated
// the chain-message and posting bytes the paper's §5/§7 evaluation
// measures (a 32-candidate chain step gobbed to ~1.2 KB; it now encodes
// in ~750 B, and posting sets are front-coded on top of that).
//
// Every message starts with a version byte. Decoders are total: any
// truncated, oversized, or version-skewed frame yields an error, never a
// panic or an unbounded allocation.

import (
	"bytes"
	"math"
	"sort"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
)

// msgVersion is the format version stamped on every engine message. No
// deployment mixes versions: a frame of any other version is refused.
const msgVersion = 2

// checkVersion consumes and validates the leading version byte.
func checkVersion(r *codec.Reader) {
	if v := r.Byte(); r.Err() == nil && v != msgVersion {
		r.Fail("unsupported message version")
	}
}

// readInt decodes a non-negative counter, rejecting values that would
// wrap negative through int() — a remote peer controls these bytes, and a
// wrapped-negative index or counter must never leave the decoder.
func readInt(r *codec.Reader) int {
	v := r.Uvarint()
	if v > uint64(math.MaxInt) {
		r.Fail("counter overflows int")
		return 0
	}
	return int(v)
}

// --- single values ----------------------------------------------------------

// appendValue appends one Value: kind byte, then the kind's payload form
// (the same column format Tuple.Encode uses).
func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindString:
		dst = codec.AppendString(dst, v.S)
	case KindInt:
		dst = codec.AppendVarint(dst, v.I)
	case KindBytes:
		dst = codec.AppendBytes(dst, v.B)
	}
	return dst
}

func readValue(r *codec.Reader) Value {
	switch k := Kind(r.Byte()); k {
	case KindString:
		return String(r.String())
	case KindInt:
		return Int(r.Varint())
	case KindBytes:
		return Bytes(r.Bytes())
	default:
		r.Fail("unknown value kind")
		return Value{}
	}
}

// appendValueList appends an order-preserving value sequence (used for the
// chain's Keys, whose order is the execution order).
func appendValueList(dst []byte, vs []Value) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendValue(dst, v)
	}
	return dst
}

func readValueList(r *codec.Reader) []Value {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readValue(r))
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// --- delta-compressed value sets --------------------------------------------

// Value sets (candidate fileIDs shipped along the join chain, final result
// sets) are unordered, so the codec sorts them and delta-compresses:
//
//	byte   set format (setUniformBytes | setUniformRaw | setGeneric)
//	setUniformBytes — every value is KindBytes of one width W (the fileID
//	case): uvarint n, uvarint W, then per entry uvarint(shared prefix with
//	predecessor) + the W-shared differing suffix bytes.
//	setUniformRaw — same shape, but the sorted values are concatenated
//	raw. Uniformly random hashes share almost no prefix, so front-coding's
//	per-entry length byte can cost more than it saves; the encoder
//	computes both sizes and ships the smaller.
//	setGeneric — mixed kinds or widths: uvarint n, then per entry a kind
//	byte and either a zigzag delta from the previous int, or front-coded
//	prefix/suffix against the previous payload of the same kind.
const (
	setGeneric      = 0
	setUniformBytes = 1
	setUniformRaw   = 2
)

// maxDecodedSetBytes caps the total payload bytes one decoded value set
// may expand to (matching wire.MaxFrame's 16 MiB message bound).
// Front-coding is an amplifier: an entry whose shared prefix equals its
// width consumes ~2 input bytes but allocates width output bytes, so
// without a cumulative cap a kilobyte-scale hostile frame could force
// gigabytes of allocation.
const maxDecodedSetBytes = 16 << 20

// sortValues orders vs canonically (kind, then payload) in place so delta
// encoding sees adjacent near-equal entries. Sets are order-free: callers
// of the set codec must not rely on slice order afterwards.
func sortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.K != b.K {
			return a.K < b.K
		}
		switch a.K {
		case KindInt:
			return a.I < b.I
		case KindString:
			return a.S < b.S
		default:
			return bytes.Compare(a.B, b.B) < 0
		}
	})
}

// EncodeValueSet appends the delta-compressed wire form of the value set
// vs to dst and returns it. The set is sorted in place (sets are
// unordered). This is the posting-list payload format the chain join and
// probe replies ship; it is exported so benchmarks and tools can measure
// it against other encodings.
func EncodeValueSet(dst []byte, vs []Value) []byte {
	uniform := len(vs) > 0
	for _, v := range vs {
		if v.K != KindBytes || len(v.B) != len(vs[0].B) {
			uniform = false
			break
		}
	}
	sortValues(vs)
	if uniform {
		width := len(vs[0].B)
		// Cost out front-coding against raw concatenation: random hashes
		// share almost no prefix, so the per-entry shared-length byte can
		// exceed what it elides.
		frontCoded := 0
		var prev []byte
		for _, v := range vs {
			shared := codec.SharedPrefix(prev, v.B)
			frontCoded += codec.UvarintLen(uint64(shared)) + width - shared
			prev = v.B
		}
		mode := byte(setUniformBytes)
		if len(vs)*width <= frontCoded {
			mode = setUniformRaw
		}
		dst = append(dst, mode)
		dst = codec.AppendUvarint(dst, uint64(len(vs)))
		dst = codec.AppendUvarint(dst, uint64(width))
		prev = nil
		for _, v := range vs {
			if mode == setUniformRaw {
				dst = append(dst, v.B...)
				continue
			}
			shared := codec.SharedPrefix(prev, v.B)
			dst = codec.AppendUvarint(dst, uint64(shared))
			dst = append(dst, v.B[shared:]...)
			prev = v.B
		}
		return dst
	}
	dst = append(dst, setGeneric)
	dst = codec.AppendUvarint(dst, uint64(len(vs)))
	var prevInt int64
	var prevStr string
	var prevBytes []byte
	for _, v := range vs {
		dst = append(dst, byte(v.K))
		switch v.K {
		case KindInt:
			dst = codec.AppendVarint(dst, v.I-prevInt)
			prevInt = v.I
		case KindString:
			shared := codec.SharedPrefixString(prevStr, v.S)
			dst = codec.AppendUvarint(dst, uint64(shared))
			dst = codec.AppendString(dst, v.S[shared:])
			prevStr = v.S
		case KindBytes:
			shared := codec.SharedPrefix(prevBytes, v.B)
			dst = codec.AppendUvarint(dst, uint64(shared))
			dst = codec.AppendBytes(dst, v.B[shared:])
			prevBytes = v.B
		}
	}
	return dst
}

// readValueSet decodes a value set in its sorted on-wire order.
func readValueSet(r *codec.Reader) []Value {
	format := r.Byte()
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	switch format {
	case setUniformBytes, setUniformRaw:
		width := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if n > 0 && width > uint64(r.Len()) {
			r.Fail("value width exceeds buffer")
			return nil
		}
		if uint64(n)*width > maxDecodedSetBytes {
			r.Fail("decoded set exceeds size cap")
			return nil
		}
		out := make([]Value, 0, n)
		// One backing array for every value instead of a make per value:
		// the size is already capped by the maxDecodedSetBytes check above,
		// and a posting set of 10k fileIDs costs 1 allocation, not 10k.
		backing := make([]byte, uint64(n)*width)
		var prev []byte
		for i := 0; i < n; i++ {
			var shared uint64
			if format == setUniformBytes {
				shared = r.Uvarint()
				if r.Err() != nil {
					return nil
				}
				if shared > uint64(len(prev)) || shared > width {
					r.Fail("bad shared prefix")
					return nil
				}
			}
			b := backing[uint64(i)*width : uint64(i+1)*width : uint64(i+1)*width]
			copy(b, prev[:shared])
			suffix := r.Take(int(width - shared))
			if r.Err() != nil {
				return nil
			}
			copy(b[shared:], suffix)
			out = append(out, Bytes(b))
			prev = b
		}
		return out
	case setGeneric:
		out := make([]Value, 0, n)
		var prevInt int64
		var prevStr string
		var prevBytes []byte
		decoded := 0 // cumulative output bytes, front-coding amplification guard
		for i := 0; i < n; i++ {
			switch k := Kind(r.Byte()); k {
			case KindInt:
				prevInt += r.Varint()
				out = append(out, Int(prevInt))
			case KindString:
				shared := r.Uvarint()
				if shared > uint64(len(prevStr)) {
					r.Fail("bad shared prefix")
					return nil
				}
				s := prevStr[:shared] + r.String()
				out = append(out, String(s))
				prevStr = s
				decoded += len(s)
			case KindBytes:
				shared := r.Uvarint()
				if shared > uint64(len(prevBytes)) {
					r.Fail("bad shared prefix")
					return nil
				}
				suffix := r.View()
				if r.Err() != nil {
					return nil
				}
				b := make([]byte, int(shared)+len(suffix))
				copy(b, prevBytes[:shared])
				copy(b[shared:], suffix)
				out = append(out, Bytes(b))
				prevBytes = b
				decoded += len(b)
			default:
				r.Fail("unknown value kind in set")
				return nil
			}
			if r.Err() != nil {
				return nil
			}
			if decoded > maxDecodedSetBytes {
				r.Fail("decoded set exceeds size cap")
				return nil
			}
		}
		return out
	default:
		r.Fail("unknown set format")
		return nil
	}
}

// DecodeValueSet parses one EncodeValueSet payload (and nothing else).
func DecodeValueSet(data []byte) ([]Value, error) {
	r := codec.NewReader(data)
	vs := readValueSet(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return vs, nil
}

// --- message codecs ---------------------------------------------------------

func encodeChainMsg(dst []byte, m *chainMsg) []byte {
	dst = append(dst, msgVersion)
	dst = codec.AppendUvarint(dst, m.QID)
	dst = codec.AppendString(dst, m.Table)
	dst = codec.AppendString(dst, m.JoinCol)
	dst = appendValueList(dst, m.Keys)
	dst = codec.AppendUvarint(dst, uint64(m.Step))
	dst = EncodeValueSet(dst, m.Candidates)
	dst = m.Origin.AppendWire(dst)
	dst = codec.AppendUvarint(dst, uint64(m.Shipped))
	dst = codec.AppendUvarint(dst, uint64(m.Hops))
	dst = codec.AppendUvarint(dst, uint64(m.Bytes))
	return codec.AppendBytes(dst, m.Filter)
}

func decodeChainMsg(data []byte) (chainMsg, error) {
	r := codec.NewReader(data)
	checkVersion(r)
	m := chainMsg{
		QID:     r.Uvarint(),
		Table:   r.String(),
		JoinCol: r.String(),
	}
	m.Keys = readValueList(r)
	m.Step = readInt(r)
	// A remote peer fully controls these bytes: the plan must be
	// internally consistent or runChainStep would index Keys[Step] out of
	// range (readInt already rejects values that wrap negative).
	if r.Err() == nil && (len(m.Keys) == 0 || m.Step >= len(m.Keys)) {
		r.Fail("chain step out of range")
	}
	m.Candidates = readValueSet(r)
	m.Origin = dht.ReadNodeInfo(r)
	m.Shipped = readInt(r)
	m.Hops = readInt(r)
	m.Bytes = readInt(r)
	m.Filter = r.Bytes()
	if len(m.Filter) == 0 {
		m.Filter = nil
	}
	return m, r.Finish()
}

func encodeResultMsg(dst []byte, m *resultMsg) []byte {
	dst = append(dst, msgVersion)
	dst = codec.AppendUvarint(dst, m.QID)
	dst = EncodeValueSet(dst, m.Values)
	dst = codec.AppendUvarint(dst, uint64(m.Shipped))
	dst = codec.AppendUvarint(dst, uint64(m.Hops))
	dst = codec.AppendUvarint(dst, uint64(m.Bytes))
	return codec.AppendString(dst, m.Err)
}

func decodeResultMsg(data []byte) (resultMsg, error) {
	r := codec.NewReader(data)
	checkVersion(r)
	m := resultMsg{QID: r.Uvarint()}
	m.Values = readValueSet(r)
	m.Shipped = readInt(r)
	m.Hops = readInt(r)
	m.Bytes = readInt(r)
	m.Err = r.String()
	return m, r.Finish()
}

func encodeCacheMsg(dst []byte, m *cacheMsg) []byte {
	dst = append(dst, msgVersion)
	dst = codec.AppendString(dst, m.Table)
	dst = appendValue(dst, m.Key)
	dst = codec.AppendString(dst, m.TextCol)
	dst = codec.AppendUvarint(dst, uint64(len(m.Filters)))
	for _, f := range m.Filters {
		dst = codec.AppendString(dst, f)
	}
	return codec.AppendVarint(dst, int64(m.Limit))
}

func decodeCacheMsg(data []byte) (cacheMsg, error) {
	r := codec.NewReader(data)
	checkVersion(r)
	m := cacheMsg{Table: r.String(), Key: readValue(r), TextCol: r.String()}
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Filters = append(m.Filters, r.String())
	}
	m.Limit = int(r.Varint())
	return m, r.Finish()
}

func encodeCacheReply(dst []byte, m *cacheReply) []byte {
	dst = append(dst, msgVersion)
	dst = codec.AppendString(dst, m.Err)
	dst = codec.AppendUvarint(dst, uint64(len(m.Tuples)))
	for _, t := range m.Tuples {
		dst = codec.AppendBytes(dst, t)
	}
	return dst
}

func decodeCacheReply(data []byte) (cacheReply, error) {
	r := codec.NewReader(data)
	checkVersion(r)
	m := cacheReply{Err: r.String()}
	n := r.Count()
	if r.Err() == nil && n > 0 {
		// Tuples alias the input buffer (View, no copy): every consumer
		// immediately re-decodes them through DecodeTuple, which copies its
		// payloads, so the views never outlive data. Count has bounded n by
		// the remaining buffer, making the preallocation safe.
		m.Tuples = make([][]byte, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Tuples = append(m.Tuples, r.View())
		}
	}
	return m, r.Finish()
}

func encodeBloomMsg(dst []byte, m *bloomMsg) []byte {
	dst = append(dst, msgVersion)
	dst = codec.AppendString(dst, m.Table)
	dst = appendValue(dst, m.Key)
	return codec.AppendString(dst, m.JoinCol)
}

func decodeBloomMsg(data []byte) (bloomMsg, error) {
	r := codec.NewReader(data)
	checkVersion(r)
	m := bloomMsg{Table: r.String(), Key: readValue(r), JoinCol: r.String()}
	return m, r.Finish()
}

func encodeBloomReply(dst []byte, m *bloomReply) []byte {
	dst = append(dst, msgVersion)
	dst = codec.AppendString(dst, m.Err)
	dst = codec.AppendUvarint(dst, uint64(m.Count))
	return codec.AppendBytes(dst, m.Filter)
}

func decodeBloomReply(data []byte) (bloomReply, error) {
	r := codec.NewReader(data)
	checkVersion(r)
	m := bloomReply{Err: r.String()}
	m.Count = readInt(r)
	m.Filter = r.Bytes()
	if len(m.Filter) == 0 {
		m.Filter = nil
	}
	return m, r.Finish()
}

// ChainMessageSize returns the encoded size of a chain-plan message
// carrying the given keys and candidate set — the per-hop unit of the
// matching-phase traffic §5/§7 account. Exported so benchmarks can compare
// wire formats without driving a cluster; candidates is sorted in place.
//
//lint:allow unusedexport the root codec benchmark sizes chain messages with it
func ChainMessageSize(table, joinCol string, keys, candidates []Value, origin dht.NodeInfo) int {
	m := chainMsg{
		QID:        1,
		Table:      table,
		JoinCol:    joinCol,
		Keys:       keys,
		Step:       1,
		Candidates: candidates,
		Origin:     origin,
		Shipped:    len(candidates),
		Hops:       1,
		Bytes:      1 << 12,
	}
	return len(encodeChainMsg(nil, &m))
}
