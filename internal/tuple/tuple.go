package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// NeverExpires is the Exp value of tuples that are never retired by window
// movement (tuples on unbounded streams, relation rows). Such tuples can
// still be retracted by negative tuples.
const NeverExpires int64 = math.MaxInt64

// Tuple is one relational record flowing through a query plan.
//
// TS is the generation timestamp: assignment time for base-stream arrivals,
// production time for derived results. Exp is the expiration timestamp
// derived per Section 2.2 of the paper: a window stamps Exp = TS + T, and a
// composite result's Exp is the minimum Exp of its constituents. Neg marks a
// negative tuple — an explicit retraction of a previously emitted tuple with
// the same Vals (Section 2.3.1).
type Tuple struct {
	TS   int64
	Exp  int64
	Neg  bool
	Vals []Value
}

// New builds a positive tuple with the given timestamp that never expires.
func New(ts int64, vals ...Value) Tuple {
	return Tuple{TS: ts, Exp: NeverExpires, Vals: vals}
}

// Negative returns a negative (retraction) twin of t: same values, same
// expiration, generation time set to when the retraction was issued.
func (t Tuple) Negative(ts int64) Tuple {
	return Tuple{TS: ts, Exp: t.Exp, Neg: true, Vals: t.Vals}
}

// WithExp returns a copy of t whose expiration is capped at exp.
func (t Tuple) WithExp(exp int64) Tuple {
	if exp < t.Exp {
		t.Exp = exp
	}
	return t
}

// Expired reports whether the tuple has fallen out of its window at time now.
// A tuple stamped Exp = TS + T is live for now < Exp and expired at now ≥ Exp,
// matching a time-based window that retains items from the last T time units.
func (t Tuple) Expired(now int64) bool { return now >= t.Exp }

// SameVals reports whether two tuples carry equal value lists. This is the
// matching rule for negative tuples.
func (t Tuple) SameVals(o Tuple) bool {
	if len(t.Vals) != len(o.Vals) {
		return false
	}
	for i := range t.Vals {
		if !t.Vals[i].Equal(o.Vals[i]) {
			return false
		}
	}
	return true
}

// Key extracts the values at the given column positions as a comparable
// composite key. Up to three columns are packed without allocation into the
// fixed fields; wider keys fall back to a joined string rendering. Values are
// canonicalized first so that Go == on Key agrees with Value.Equal: integral
// floats pack as ints, and every NaN packs as one NaN bit pattern (a float's
// bits live in Value.I, so == on them is bitwise).
func (t Tuple) Key(cols []int) Key {
	var k Key
	k.n = int32(len(cols))
	switch {
	case len(cols) >= 1 && len(cols) <= 3:
		for i, c := range cols {
			k.set(i, t.Vals[c].Canonical())
		}
	case len(cols) > 3:
		// Manual byte appends into one pre-grown builder: rendering through
		// fmt would allocate per column on this already-slow path, and
		// Builder.String hands over its buffer without copying.
		var b strings.Builder
		b.Grow(16 * len(cols))
		var num [48]byte // scratch for one part's rendering, stays on the stack
		for i, c := range cols {
			if i > 0 {
				b.WriteByte('\x1f')
			}
			v := t.Vals[c].Canonical()
			if v.Kind() == KindString {
				// Write the string directly: copying it through the fixed
				// scratch would truncate long values.
				b.WriteString(v.S)
				b.WriteString("/3")
				continue
			}
			b.Write(appendKeyPart(num[:0], v))
		}
		k.wide = b.String()
	}
	return k
}

// appendKeyPart renders one non-string canonical value in the wide-key
// format — the value rendering, '/', and the kind digit — appending to dst.
// Key's wide rendering and KeyMatches' wide comparison both build parts
// through it, so they can never disagree byte for byte.
func appendKeyPart(dst []byte, v Value) []byte {
	k := v.Kind()
	switch k {
	case KindNull:
		dst = append(dst, "NULL"...)
	case KindInt:
		dst = strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		dst = strconv.AppendFloat(dst, v.F(), 'g', -1, 64)
	}
	dst = append(dst, '/')
	return strconv.AppendUint(dst, uint64(k), 10)
}

// nanKey is the one NaN that canonical keeps, with math.NaN()'s bits.
var nanKey = FloatBits(0x7FF8000000000001)

// Canonical returns the representation of v that a Key stores. It maps Equal
// values onto ==-equal ones: an integral float inside the int64 range becomes
// that int (±0 both become 0), every NaN becomes nanKey, and everything else
// is already canonical. The range check is f < 2^63: int64(2^63) does not
// exist.
func (v Value) Canonical() Value {
	if !v.is(KindFloat) {
		return v
	}
	f := math.Float64frombits(uint64(v.I))
	if f != f {
		return nanKey
	}
	if f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		return Int(int64(f))
	}
	return v
}

// Key is a comparable composite of up to three canonical values (or a
// string-packed rendering for wider keys), usable as a Go map key. Value
// itself is not comparable, so each column keeps its kind in kind and its
// payloads in a comparable keyPart; == on two Keys then compares kind, I and
// the string's bytes, column by column. The column count shares a word with
// the kinds.
type Key struct {
	n    int32
	kind [3]Kind
	v    [3]keyPart
	wide string
}

// keyPart holds one key column's payloads, I and S as in Value.
type keyPart struct {
	S string
	I int64
}

// set stores canonical value v as column i.
func (k *Key) set(i int, v Value) {
	k.kind[i] = v.Kind()
	k.v[i] = keyPart{S: v.S, I: v.I}
}

// holds reports whether canonical value v is column i. An empty S of any
// kind equals any other, so kind decides between them.
func (k *Key) holds(i int, v Value) bool {
	return k.kind[i] == v.Kind() && k.v[i].I == v.I && k.v[i].S == v.S
}

// value returns column i as a Value.
func (k *Key) value(i int) Value {
	switch p := k.v[i]; k.kind[i] {
	case KindInt:
		return Int(p.I)
	case KindFloat:
		return FloatBits(uint64(p.I))
	case KindString:
		return String_(p.S)
	}
	return Null
}

// String renders the key for debugging.
func (k Key) String() string {
	if k.n > 3 {
		return k.wide
	}
	parts := make([]string, k.n)
	for i := range parts {
		parts[i] = k.value(i).String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// KeyMatches reports whether t's key over cols equals k, without building
// (and copying) a second composite Key — the per-visit verification hash
// buffers need once their buckets are addressed by Key.Hash64 digests.
//
// The wide (>3 column) form compares incrementally against k's packed
// rendering instead of re-deriving a second rendering: each column's part is
// rendered into stack scratch (strings compare in place) and matched as a
// prefix, so keyed lookups on wide keys allocate nothing.
func (t Tuple) KeyMatches(cols []int, k Key) bool {
	if len(cols) != int(k.n) {
		return false
	}
	if k.n > 3 {
		rest := k.wide
		var num [48]byte
		for i, c := range cols {
			if i > 0 {
				if len(rest) == 0 || rest[0] != '\x1f' {
					return false
				}
				rest = rest[1:]
			}
			v := t.Vals[c].Canonical()
			if v.Kind() == KindString {
				if len(rest) < len(v.S)+2 || rest[:len(v.S)] != v.S || rest[len(v.S):len(v.S)+2] != "/3" {
					return false
				}
				rest = rest[len(v.S)+2:]
				continue
			}
			part := appendKeyPart(num[:0], v)
			if len(rest) < len(part) || rest[:len(part)] != string(part) {
				return false
			}
			rest = rest[len(part):]
		}
		return len(rest) == 0
	}
	for i, c := range cols {
		if !k.holds(i, t.Vals[c].Canonical()) {
			return false
		}
	}
	return true
}

// Hash64 hashes the key consistently with Value.Hash64.
func (k Key) Hash64() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if k.n > 3 {
		for i := 0; i < len(k.wide); i++ {
			h ^= uint64(k.wide[i])
			h *= prime
		}
		return h
	}
	for i := 0; i < int(k.n); i++ {
		h ^= hashCanonical(k.kind[i], k.v[i].I, k.v[i].S)
		h *= prime
	}
	return h
}

// KeyHash64 returns t.Key(cols).Hash64() without building the Key: state
// buffers that address their index by digest need nothing else from a stored
// or retracted tuple. Wide (>3 column) keys stream their packed rendering
// through the hash part by part, as KeyMatches compares it, so digesting an
// all-column view key allocates nothing.
func (t Tuple) KeyHash64(cols []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if len(cols) <= 3 {
		for _, c := range cols {
			h ^= t.Vals[c].Hash64()
			h *= prime
		}
		return h
	}
	var num [48]byte
	for i, c := range cols {
		if i > 0 {
			h ^= '\x1f'
			h *= prime
		}
		v := t.Vals[c].Canonical()
		part := num[:0]
		if v.Kind() == KindString {
			for j := 0; j < len(v.S); j++ {
				h ^= uint64(v.S[j])
				h *= prime
			}
			part = append(part, "/3"...)
		} else {
			part = appendKeyPart(part, v)
		}
		for _, b := range part {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// Compare imposes a deterministic total order on keys without rendering them
// (String allocates — hot expiration waves sort their touched keys with this
// instead). The order is arbitrary but stable: width, then per-value kind and
// payload; wide keys compare their packed renderings.
func (k Key) Compare(o Key) int {
	if k.n != o.n {
		if k.n < o.n {
			return -1
		}
		return 1
	}
	if k.n > 3 {
		return strings.Compare(k.wide, o.wide)
	}
	for i := 0; i < int(k.n); i++ {
		if c := k.compare(&o, i); c != 0 {
			return c
		}
	}
	return 0
}

// compare orders column i of two keys: kind first, then the payload field
// that kind uses.
func (k *Key) compare(o *Key, i int) int {
	a, b := k.v[i], o.v[i]
	if c := cmp.Compare(k.kind[i], o.kind[i]); c != 0 {
		return c
	}
	switch k.kind[i] {
	case KindInt:
		return cmp.Compare(a.I, b.I)
	case KindFloat:
		return cmpFloat(math.Float64frombits(uint64(a.I)), math.Float64frombits(uint64(b.I)))
	case KindString:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// Clone deep-copies the tuple's value slice so later mutation of the source
// cannot alias stored state.
func (t Tuple) Clone() Tuple {
	t.Vals = append([]Value(nil), t.Vals...)
	return t
}

// String renders the tuple for debugging: sign, values, and timestamps.
func (t Tuple) String() string {
	var b strings.Builder
	if t.Neg {
		b.WriteByte('-')
	} else {
		b.WriteByte('+')
	}
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	fmt.Fprintf(&b, "@%d", t.TS)
	if t.Exp != NeverExpires {
		fmt.Fprintf(&b, "..%d", t.Exp)
	}
	return b.String()
}

// Concat returns a new positive tuple whose values are t's followed by o's,
// with TS set to ts and Exp = min(t.Exp, o.Exp) per Section 2.2.
func (t Tuple) Concat(o Tuple, ts int64) Tuple {
	vals := make([]Value, 0, len(t.Vals)+len(o.Vals))
	vals = append(vals, t.Vals...)
	vals = append(vals, o.Vals...)
	exp := t.Exp
	if o.Exp < exp {
		exp = o.Exp
	}
	return Tuple{TS: ts, Exp: exp, Vals: vals}
}
