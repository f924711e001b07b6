package statebuf

import (
	"container/list"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// ListBuffer is the straightforward insertion-ordered linked list that the
// DIRECT strategy uses for all state (Section 2.3.3, Section 6.1: "sliding
// windows and state buffers are implemented as linked lists"). Insertions are
// O(1), but expiration of weak non-monotonic state and negative-tuple removal
// require sequential scans of the whole buffer — the inefficiency that the
// partitioned buffer eliminates. It is retained as the experimental baseline.
type ListBuffer struct {
	items   *list.List
	touched int64
}

// NewList returns an empty list buffer.
func NewList() *ListBuffer { return &ListBuffer{items: list.New()} }

// Insert appends t at the tail (insertion order).
func (b *ListBuffer) Insert(t tuple.Tuple) {
	b.touched++
	b.items.PushBack(t)
}

// ExpireUpTo scans the entire list and unlinks every expired tuple.
func (b *ListBuffer) ExpireUpTo(now int64) []tuple.Tuple {
	var out []tuple.Tuple
	for e := b.items.Front(); e != nil; {
		b.touched++
		next := e.Next()
		t := e.Value.(tuple.Tuple)
		if t.Exp <= now {
			out = append(out, t)
			b.items.Remove(e)
		}
		e = next
	}
	return sortExpired(out)
}

// Remove scans for one tuple with values equal to t's and unlinks it,
// preferring an exact expiration match (negative tuples carry the original
// tuple's Exp, which disambiguates value twins).
func (b *ListBuffer) Remove(t tuple.Tuple) bool {
	var fallback *list.Element
	for e := b.items.Front(); e != nil; e = e.Next() {
		b.touched++
		got := e.Value.(tuple.Tuple)
		if !got.SameVals(t) {
			continue
		}
		if got.Exp == t.Exp {
			b.items.Remove(e)
			return true
		}
		if fallback == nil {
			fallback = e
		}
	}
	if fallback == nil {
		return false
	}
	b.items.Remove(fallback)
	return true
}

// Scan visits stored tuples in insertion order.
func (b *ListBuffer) Scan(fn func(t tuple.Tuple) bool) {
	for e := b.items.Front(); e != nil; e = e.Next() {
		b.touched++
		if !fn(e.Value.(tuple.Tuple)) {
			return
		}
	}
}

// Len returns the number of stored tuples.
func (b *ListBuffer) Len() int { return b.items.Len() }

// Touched returns cumulative tuple visits.
func (b *ListBuffer) Touched() int64 { return b.touched }

// Kind identifies the buffer implementation (KindList).
func (b *ListBuffer) Kind() Kind { return KindList }

// SaveState implements checkpoint.Snapshotter: cost counter, then the tuples
// front to back.
func (b *ListBuffer) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.touched)
	enc.Uvarint(uint64(b.items.Len()))
	for e := b.items.Front(); e != nil; e = e.Next() {
		enc.Tuple(e.Value.(tuple.Tuple))
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter. Tuples are relinked directly
// (not via Insert) so the saved cost counter is reproduced exactly.
func (b *ListBuffer) LoadState(dec *checkpoint.Decoder) error {
	b.touched = dec.Varint()
	b.items = list.New()
	for _, t := range dec.Tuples() {
		b.items.PushBack(t)
	}
	return dec.Err()
}
