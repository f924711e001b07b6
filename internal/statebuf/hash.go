package statebuf

import (
	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// HashBuffer keys stored tuples by a configured column set. It backs the
// negative-tuple strategy (Section 2.3.1: "the negative tuple approach can be
// implemented efficiently if the operator state is sorted by key so that
// expired tuples can be looked up quickly") and the UPA choice for strict
// non-monotonic state with frequent premature expirations (Section 5.3.2).
//
// It is the keyed store with no partitions: a probe or a removal walks one
// key's chain, O(1) expected, and a removal releases its entry at once (NT
// never expires by timestamp, so a stale entry would never be reclaimed).
// Timestamp-driven expiration walks the whole slab, which is why the NT
// strategy never relies on it (windows retract tuples explicitly instead).
// That walk and Scan run in slot order, which depends only on the sequence
// of inserts and removals, so one input yields one order. A checkpoint does
// not carry it: a reload re-inserts in digest order, the slot order from then
// on, so ties in (Exp, TS) may expire in another order than without the
// restore.
type HashBuffer struct{ store }

// NewHash returns a hash buffer keyed on the given column positions.
func NewHash(keyCols []int) *HashBuffer {
	b := &HashBuffer{}
	b.indexOn(keyCols)
	return b
}

// KeyCols returns the key column positions.
func (b *HashBuffer) KeyCols() []int { return b.keyCols }

// Insert stores t under its key.
func (b *HashBuffer) Insert(t tuple.Tuple) { b.InsertHashed(t.KeyHash64(b.keyCols), t) }

// InsertHashed implements HashedBuffer: stores t under a caller-computed key
// digest (which must be the Hash64 of t's key over this buffer's key
// columns), at the tail of its chain.
func (b *HashBuffer) InsertHashed(h uint64, t tuple.Tuple) {
	ref, e := b.alloc(h, t)
	e.slot = 0
	b.link(ref, e, false)
}

// ExpireUpTo walks the slab for tuples with Exp <= now. The returned slice is
// only valid until the next ExpireUpTo call on this buffer (see the Buffer
// contract).
func (b *HashBuffer) ExpireUpTo(now int64) []tuple.Tuple {
	out := b.scratch[:0]
	for ref := int32(1); ref <= b.ents.used; ref++ {
		if e := b.ents.At(ref); e.slot != dead {
			b.touched++
			if e.t.Exp <= now {
				out = append(out, e.t)
				b.drop(ref, e)
			}
		}
	}
	if len(out) > 1 {
		sortExpired(out)
	}
	b.scratch = out
	return out
}

// Remove deletes the stored tuple the retraction rule names (store.victim).
func (b *HashBuffer) Remove(t tuple.Tuple) bool {
	ref := b.victim(t)
	if ref != 0 {
		b.drop(ref, b.ents.At(ref))
	}
	return ref != 0
}

// ProbeAppend implements ProbeAppender: live (Exp > now) tuples stored under
// k are appended to dst in insertion order.
func (b *HashBuffer) ProbeAppend(k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.probe(k.Hash64(), k, now, dst)
}

// ProbeAppendHashed is ProbeAppend with k's digest already in hand; k itself
// still verifies each visited tuple, since distinct keys can share a digest.
func (b *HashBuffer) ProbeAppendHashed(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.probe(h, k, now, dst)
}

// Scan visits every stored tuple in slot order.
func (b *HashBuffer) Scan(fn func(t tuple.Tuple) bool) {
	for ref := int32(1); ref <= b.ents.used; ref++ {
		if e := b.ents.At(ref); e.slot != dead {
			b.touched++
			if !fn(e.t) {
				return
			}
		}
	}
}

// LookupAppend implements KeyReader.
func (b *HashBuffer) LookupAppend(k tuple.Key, dst []tuple.Tuple) []tuple.Tuple {
	return b.lookup(k, dst)
}

// Kind identifies the buffer implementation (KindHash).
func (b *HashBuffer) Kind() Kind { return KindHash }

// SaveState implements checkpoint.Snapshotter with the hash section
// (store.saveByDigest).
func (b *HashBuffer) SaveState(enc *checkpoint.Encoder) error { return b.saveByDigest(enc, b.touched) }

// LoadState implements checkpoint.Snapshotter: tuples are re-inserted (the
// key columns come from the plan-built configuration).
func (b *HashBuffer) LoadState(dec *checkpoint.Decoder) error {
	return b.load(dec, b.reset, b.Insert)
}
