// Package types defines the primitive data model shared by every layer of
// BlinkDB-Go: typed values, rows, schemas and comparison helpers.
//
// The representation is deliberately flat (a tagged struct rather than an
// interface) so that rows can be stored contiguously and compared without
// allocation, which matters for the sampling and execution hot paths.
package types

import (
	"fmt"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

const (
	// KindNull is the zero Kind; it compares less than every other value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE 754 float.
	KindFloat
	// KindString is an immutable UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed datum. Exactly one of the payload fields is
// meaningful, selected by Kind. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str wraps a string.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	if v {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64. Strings and NULL yield 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// kindRank orders kinds for cross-kind comparison: NULL < numeric < string.
func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool, KindInt, KindFloat:
		return 1
	case KindString:
		return 2
	default:
		return 3
	}
}

// Compare returns -1, 0 or +1 ordering a before/equal/after b.
// Numeric kinds compare numerically with each other; otherwise values of
// different kinds order by kind rank. NULL sorts first.
func Compare(a, b Value) int {
	// Both ints: the common case, and exact where float rounding of large
	// magnitudes is not.
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	ra, rb := kindRank(a.Kind), kindRank(b.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // numeric
		fa, fb := a.AsFloat(), b.AsFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	default: // string
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
}

// Key returns a compact string encoding usable as a map key. Distinct
// values produce distinct keys within a column's kind.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00"
	case KindInt, KindBool:
		return "i" + strconv.FormatInt(v.I, 36)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.F, 'b', -1, 64)
	default:
		return "s" + v.S
	}
}
