package types

import "math"

// FNV-1a constants (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashSeed is the initial hash state for HashInto chains.
const HashSeed uint64 = fnvOffset64

// HashInto folds the value into an FNV-1a hash state. Values that encode
// to equal Key() strings hash equally (Int and Bool share the integer
// space, mirroring Key()), so a hash of the GROUP BY values can replace
// the string-concatenated RowKey in grouping hot paths.
func (v Value) HashInto(h uint64) uint64 {
	switch v.Kind {
	case KindNull:
		return (h ^ 0) * fnvPrime64
	case KindInt, KindBool:
		return hashUint64((h^'i')*fnvPrime64, uint64(v.I))
	case KindFloat:
		return hashUint64((h^'f')*fnvPrime64, math.Float64bits(v.F))
	default: // KindString
		h = (h ^ 's') * fnvPrime64
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime64
		}
		return h
	}
}

func hashUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

// GroupEqual reports whether two values are the same GROUP BY key, with
// the same equivalence RowKey/Key() encode: NULLs match each other, Int
// and Bool compare by integer payload, floats by bit pattern, strings by
// content. This is deliberately stricter than Compare (Int(1) and
// Float(1) are distinct groups, as they were under string keys).
func GroupEqual(a, b Value) bool {
	ka, kb := groupClass(a.Kind), groupClass(b.Kind)
	if ka != kb {
		return false
	}
	switch ka {
	case 0: // NULL
		return true
	case 1: // integer-like
		return a.I == b.I
	case 2: // float
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	default: // string
		return a.S == b.S
	}
}

func groupClass(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindBool:
		return 1
	case KindFloat:
		return 2
	default:
		return 3
	}
}
