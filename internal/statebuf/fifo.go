package statebuf

import (
	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// FIFOBuffer stores state whose expiration order equals its insertion order —
// the weakest non-monotonic (WKS) case of Section 3.1. It is a paged deque:
// insertions fill the tail page, expirations pop from the head, and a page is
// released as one chunk (a single memclr, recycled through a freelist) only
// when wholly consumed — so steady-state window slide frees no per-tuple
// slots and allocates nothing.
//
// The buffer tolerates inputs whose Exp sequence is not perfectly
// non-decreasing (e.g. merged streams of slightly different window sizes) by
// falling back to a full scan; for true WKS inputs expiration stops at the
// first live tuple.
type FIFOBuffer struct {
	items   chunkedTuples
	touched int64
	lastExp int64
	// unsorted is set when an insertion breaks the non-decreasing Exp
	// invariant; expiration then degrades to a full scan so the Buffer
	// contract still holds.
	unsorted bool
	// scratch backs ExpireUpTo's result slice across passes. Windows call
	// ExpireUpTo once per maintenance tick to mint negative tuples, so
	// reusing one buffer removes that per-tick allocation.
	scratch []tuple.Tuple
}

// NewFIFO returns an empty FIFO buffer.
func NewFIFO() *FIFOBuffer { return &FIFOBuffer{} }

// Insert appends t at the tail.
func (b *FIFOBuffer) Insert(t tuple.Tuple) {
	b.touched++
	if t.Exp < b.lastExp {
		b.unsorted = true
	} else {
		b.lastExp = t.Exp
	}
	b.items.Push(t)
}

// ExpireUpTo pops tuples with Exp <= now from the head. If the FIFO
// invariant was ever violated it scans the whole buffer instead. The
// returned slice is only valid until the next ExpireUpTo call on this buffer
// (see the Buffer contract).
func (b *FIFOBuffer) ExpireUpTo(now int64) []tuple.Tuple {
	out := b.scratch[:0]
	if b.unsorted {
		// Survivors move toward the head within their pages; the pages the
		// compaction empties go back to the freelist.
		n, kept := b.items.Len(), 0
		for i := 0; i < n; i++ {
			b.touched++
			t := b.items.At(i)
			if t.Exp <= now {
				out = append(out, *t)
				continue
			}
			if kept != i {
				*b.items.At(kept) = *t
			}
			kept++
		}
		b.items.Truncate(kept)
	} else {
		for b.items.Len() > 0 {
			b.touched++
			if b.items.At(0).Exp > now {
				break
			}
			out = append(out, b.items.PopHead())
		}
	}
	// A pop under the FIFO invariant is already Exp-ordered and the sort only
	// settles TS ties, so skip it for the common 0/1-tuple pops.
	if len(out) > 1 {
		sortExpired(out)
	}
	b.scratch = out
	return out
}

// Remove deletes one tuple with values equal to t's by scanning from the
// head, preferring an exact expiration match (negative tuples carry the
// original tuple's Exp, which disambiguates value twins).
func (b *FIFOBuffer) Remove(t tuple.Tuple) bool {
	at := -1
	n := b.items.Len()
	for i := 0; i < n; i++ {
		b.touched++
		c := b.items.At(i)
		if !c.SameVals(t) {
			continue
		}
		if at < 0 {
			at = i
		}
		if c.Exp == t.Exp {
			at = i
			break
		}
	}
	if at < 0 {
		return false
	}
	b.items.RemoveAt(at)
	return true
}

// Scan visits stored tuples in insertion order.
func (b *FIFOBuffer) Scan(fn func(t tuple.Tuple) bool) {
	n := b.items.Len()
	for i := 0; i < n; i++ {
		b.touched++
		if !fn(*b.items.At(i)) {
			return
		}
	}
}

// Each implements Buffer.
func (b *FIFOBuffer) Each(fn func(t *tuple.Tuple) bool) {
	for i := 0; i < b.items.Len(); i++ {
		if !fn(b.items.At(i)) {
			return
		}
	}
}

// Clear empties the buffer, releasing whole pages back to the deque
// freelist. The cumulative Touched counter is preserved (it is a cost
// ledger, not state).
func (b *FIFOBuffer) Clear() {
	b.items.Reset()
	b.lastExp = 0
	b.unsorted = false
	b.scratch = nil
}

// Len returns the number of stored tuples.
func (b *FIFOBuffer) Len() int { return b.items.Len() }

// Touched returns cumulative tuple visits.
func (b *FIFOBuffer) Touched() int64 { return b.touched }

// Kind identifies the buffer implementation (KindFIFO).
func (b *FIFOBuffer) Kind() Kind { return KindFIFO }

// SaveState implements checkpoint.Snapshotter: cost counter, the FIFO
// invariant flags, then the live tuples in insertion order — the same wire
// layout as Encoder.Tuples, element-walked because the deque is paged.
func (b *FIFOBuffer) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.touched)
	enc.Varint(b.lastExp)
	enc.Bool(b.unsorted)
	b.items.Save(enc)
	return enc.Err()
}

// SaveSlice writes SaveState's layout restricted to the stored tuples keep
// selects, for a checkpoint that writes one buffer as several partition
// sections. The cost counter travels in the lead slice only (zero in the
// others), so the slices' counters sum to the buffer's.
func (b *FIFOBuffer) SaveSlice(enc *checkpoint.Encoder, lead bool, keep func(t tuple.Tuple) bool) error {
	if lead {
		enc.Varint(b.touched)
	} else {
		enc.Varint(0)
	}
	enc.Varint(b.lastExp)
	enc.Bool(b.unsorted)
	n := b.items.Len()
	kept := 0
	for i := 0; i < n; i++ {
		if keep(*b.items.At(i)) {
			kept++
		}
	}
	enc.Uvarint(uint64(kept))
	for i := 0; i < n; i++ {
		if t := *b.items.At(i); keep(t) {
			enc.Tuple(t)
		}
	}
	return enc.Err()
}

// Absorb merges o, a slice loaded from a later partition section, into b:
// the tuples in TS order with b's first at equal TS, so slices absorbed in
// section order end in (TS, section) order. Cost counters add up, the
// insertion cursor is the later one, and an unsorted flag on either side
// sticks.
func (b *FIFOBuffer) Absorb(o *FIFOBuffer) {
	merged := make([]tuple.Tuple, 0, b.items.Len()+o.items.Len())
	i, j := 0, 0
	for i < b.items.Len() || j < o.items.Len() {
		if j == o.items.Len() || (i < b.items.Len() && b.items.At(i).TS <= o.items.At(j).TS) {
			merged = append(merged, *b.items.At(i))
			i++
		} else {
			merged = append(merged, *o.items.At(j))
			j++
		}
	}
	b.items.Reset()
	for _, t := range merged {
		b.items.Push(t)
	}
	b.touched += o.touched
	b.lastExp = max(b.lastExp, o.lastExp)
	b.unsorted = b.unsorted || o.unsorted
}

// LoadState implements checkpoint.Snapshotter.
func (b *FIFOBuffer) LoadState(dec *checkpoint.Decoder) error {
	b.touched = dec.Varint()
	b.lastExp = dec.Varint()
	b.unsorted = dec.Bool()
	b.items.Load(dec)
	return dec.Err()
}
