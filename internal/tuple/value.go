// Package tuple defines the data model shared by every component of the
// stream processor: typed scalar values, relational schemas, and timestamped
// tuples that may carry a deletion (negative) flag.
//
// The model follows Section 2 of Golab & Özsu (SIGMOD 2005): a data stream is
// an append-only sequence of relational tuples with the same schema, each
// carrying a non-decreasing timestamp TS assigned on arrival and, once it has
// passed through a sliding window, an expiration timestamp Exp = TS + window
// size. Negative tuples (Neg = true) signal that a previously reported tuple
// is no longer part of a result.
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the scalar types a Value can hold.
type Kind uint8

const (
	// KindNull is the zero Kind; it compares less than every other value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a typed scalar. It is a plain comparable struct (usable as a map
// key) rather than an interface so that hot operator paths avoid boxing and
// per-tuple allocation. It is 32 bytes: a float has no field of its own but
// keeps its IEEE bits in I, so every stored row pays for two payloads, not
// three.
//
// Go's == on Values is therefore exact on the representation: floats compare
// bitwise (NaN equals the same NaN bits, +0 differs from -0), and Int(1)
// differs from Float(1). Equal and Compare give the engine's semantics; the
// canonical form that Key stores folds integral floats onto ints, ±0 onto 0
// and every NaN onto one NaN, so == on Keys agrees with Equal.
type Value struct {
	Kind Kind
	I    int64 // the int, or the float's math.Float64bits for KindFloat
	S    string
}

// Null is the null value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(f))} }

// F returns the float payload of a KindFloat value, and 0 for every other
// kind.
func (v Value) F() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// String_ returns a string value. The trailing underscore avoids clashing
// with the fmt.Stringer method on Value.
func String_(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns an integer-encoded boolean (1 or 0). The engine has no
// dedicated boolean kind; predicates evaluate natively to Go bools.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat returns the numeric content of v widened to float64.
// Strings and nulls return 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F()
	default:
		return 0
	}
}

// AsInt returns the numeric content of v narrowed to int64.
// Strings and nulls return 0.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F())
	default:
		return 0
	}
}

// Compare orders two values. Values of different kinds order by kind, except
// that ints and floats compare numerically and exactly: Int(2^53+1) orders
// above Float(2^53) although float64(2^53+1) rounds onto it. NaN floats order
// below all other numbers (and equal to each other) so that Compare is a
// total order.
func (v Value) Compare(o Value) int {
	// Numeric cross-kind comparison.
	if v.Kind == KindInt && o.Kind == KindFloat {
		return cmpIntFloat(v.I, o.F())
	}
	if v.Kind == KindFloat && o.Kind == KindInt {
		return -cmpIntFloat(o.I, v.F())
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case KindFloat:
		return cmpFloat(v.F(), o.F())
	case KindString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
	return 0
}

// cmpIntFloat compares i with f without rounding i to a float: f's integral
// part, which fits an int64 once f lies in [-2^63, 2^63), compares as an
// int, and a tie falls to f's fraction.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f || f < -0x1p63: // NaN orders below every number
		return 1
	case f >= 0x1p63:
		return -1
	}
	t := math.Trunc(f)
	switch ti := int64(t); {
	case i < ti:
		return -1
	case i > ti:
		return 1
	case f > t:
		return -1
	case f < t:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Less reports whether v orders strictly before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Hash64 returns an FNV-1a hash of the value's canonical form, so Equal
// values hash equal: ints and integral floats alike, and every NaN.
func (v Value) Hash64() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	switch v = v.Canonical(); v.Kind {
	case KindNull:
		mix(0)
	case KindInt, KindFloat:
		mixInt(&h, v.I) // a float mixes its bits
	case KindString:
		mix(3)
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	}
	return h
}

func mixInt(h *uint64, i int64) {
	const prime = 1099511628211
	u := uint64(i)
	for k := 0; k < 8; k++ {
		*h ^= uint64(byte(u >> (8 * k)))
		*h *= prime
	}
}

// String renders the value for debugging and CSV output.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return v.S
	default:
		return fmt.Sprintf("?%d", v.Kind)
	}
}

// ParseValue parses s into a value of the requested kind.
func ParseValue(kind Kind, s string) (Value, error) {
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return String_(s), nil
	case KindNull:
		return Null, nil
	default:
		return Null, fmt.Errorf("unknown kind %v", kind)
	}
}
