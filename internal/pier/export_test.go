package pier

// Only this package's tests use what follows.

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	for i, v := range t {
		if v.K == KindBytes {
			b := make([]byte, len(v.B))
			copy(b, v.B)
			out[i].B = b
		}
	}
	return out
}

// Equal reports field-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Equal reports deep equality of kind and payload.
func (v Value) Equal(o Value) bool {
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KindString:
		return v.S == o.S
	case KindInt:
		return v.I == o.I
	case KindBytes:
		return string(v.B) == string(o.B)
	}
	return false
}
