package statebuf

import (
	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// IndexedFIFO combines the WKS insight — expiration order equals insertion
// order, so expirations pop from a queue in O(1) — with a hash index on key
// columns so equijoin probes are O(1) as well. It is the structure the UPA
// strategy assigns to stateful operators' weakest non-monotonic inputs:
// strictly cheaper than both the DIRECT list (O(N) probe and scan-expiry)
// and the NT hash (O(1) probe but retirement only via doubled tuple
// traffic).
//
// The arrival queue is a paged deque: head-pops release storage a whole
// chunk at a time (see chunkedTuples), so window slide never frees or zeroes
// per-tuple slots.
//
// Retractions may remove tuples out of FIFO order; the queue keeps a stale
// entry that is skipped when it surfaces, so Remove stays O(bucket).
type IndexedFIFO struct {
	hash  *HashBuffer
	queue chunkedTuples // arrival order; may contain already-removed entries
	// ring mirrors queue: a pointer to the hash bucket each queued tuple was
	// inserted into, taken once at insert so expiry-time index removal skips
	// key rendering, hashing, AND the map lookup (together the dominant cost
	// of sorted expiration). A retraction may retire — and the freelist
	// recycle — a bucket while its ring entry is still queued; removeExactIn's
	// full value-and-expiration comparison then matches nothing foreign, which
	// is the same stale-entry contract the queue already carries.
	ring    bkRing
	lastExp int64
	// unsorted is set when insertions break the non-decreasing Exp
	// invariant (e.g. a union of windows with different sizes); expiration
	// then falls back to scanning the index so the Buffer contract holds.
	unsorted bool
	// scratch backs ExpireUpTo's result slice across passes; keep backs the
	// unsorted prune's survivor list.
	scratch []tuple.Tuple
	keep    []tuple.Tuple
}

// NewIndexedFIFO builds an indexed FIFO keyed on the given columns.
func NewIndexedFIFO(keyCols []int) *IndexedFIFO {
	return &IndexedFIFO{hash: NewHash(keyCols)}
}

// Insert stores t.
func (b *IndexedFIFO) Insert(t tuple.Tuple) {
	b.insertHashed(t.KeyHash64(b.hash.keyCols), t)
}

// KeyCols returns the index's key column positions.
func (b *IndexedFIFO) KeyCols() []int { return b.hash.KeyCols() }

// InsertHashed implements HashedBuffer (see HashBuffer.InsertHashed).
func (b *IndexedFIFO) InsertHashed(h uint64, t tuple.Tuple) {
	b.insertHashed(h, t)
}

// insertHashed stores t under its precomputed key digest, recording the
// target bucket beside the queue entry for expiry.
func (b *IndexedFIFO) insertHashed(h uint64, t tuple.Tuple) {
	if t.Exp < b.lastExp {
		b.unsorted = true
	} else {
		b.lastExp = t.Exp
	}
	bk := b.hash.insertHashed(h, t)
	b.queue.Push(t)
	b.ring.Push(bk)
}

// ExpireUpTo pops due tuples from the queue head, removing each from the
// index; stale queue entries (already retracted) are skipped. If the FIFO
// invariant was ever violated it scans the index instead. The returned slice
// is only valid until the next ExpireUpTo call on this buffer (see the Buffer
// contract).
func (b *IndexedFIFO) ExpireUpTo(now int64) []tuple.Tuple {
	if b.unsorted {
		out := b.hash.ExpireUpTo(now)
		// Queue entries for the expired tuples are now stale; prune once
		// staleness dominates so the queue cannot grow without bound. The
		// bucket ring is rebuilt alongside (recomputing keys and looking the
		// buckets back up — the prune is rare and the sorted fast path never
		// runs again once unsorted); a survivor whose tuple was since removed
		// maps to a nil ring entry, which expiry skips.
		if b.queue.Len() > 2*b.hash.Len()+64 {
			kept := b.keep[:0]
			n := b.queue.Len()
			for i := 0; i < n; i++ {
				if t := *b.queue.At(i); t.Exp > now {
					kept = append(kept, t)
				}
			}
			b.queue.Reset()
			b.ring.Reset()
			for _, t := range kept {
				b.queue.Push(t)
				b.ring.Push(b.hash.buckets[t.KeyHash64(b.hash.keyCols)])
			}
			b.keep = kept
		}
		return out
	}
	out := b.scratch[:0]
	for b.queue.Len() > 0 {
		if b.queue.At(0).Exp > now {
			break
		}
		t := b.queue.PopHead()
		if bk := b.ring.PopHead(); bk != nil && b.hash.removeExactIn(bk, t) {
			out = append(out, t)
		}
	}
	if len(out) > 1 {
		sortExpired(out)
	}
	b.scratch = out
	return out
}

// Remove deletes one matching tuple from the index; its queue entry goes
// stale and is skipped later.
func (b *IndexedFIFO) Remove(t tuple.Tuple) bool { return b.hash.Remove(t) }

// ProbeAppend implements ProbeAppender (see HashBuffer.ProbeAppend).
func (b *IndexedFIFO) ProbeAppend(k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.hash.ProbeAppend(k, now, dst)
}

// ProbeAppendHashed implements HashedBuffer (see HashBuffer.ProbeAppendHashed).
func (b *IndexedFIFO) ProbeAppendHashed(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.hash.ProbeAppendHashed(h, k, now, dst)
}

// Scan visits every stored tuple.
func (b *IndexedFIFO) Scan(fn func(t tuple.Tuple) bool) { b.hash.Scan(fn) }

// Len returns the number of stored tuples.
func (b *IndexedFIFO) Len() int { return b.hash.Len() }

// Touched returns cumulative tuple visits.
func (b *IndexedFIFO) Touched() int64 { return b.hash.Touched() }

// Kind identifies the buffer implementation (KindIndexedFIFO).
func (b *IndexedFIFO) Kind() Kind { return KindIndexedFIFO }

// SaveState implements checkpoint.Snapshotter: the FIFO invariant flags, the
// queue (including stale entries — they are part of the structure's exact
// state) in Encoder.Tuples wire layout, then the hash index section.
func (b *IndexedFIFO) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.lastExp)
	enc.Bool(b.unsorted)
	enc.Uvarint(uint64(b.queue.Len()))
	b.queue.Scan(func(t tuple.Tuple) bool {
		enc.Tuple(t)
		return true
	})
	return b.hash.SaveState(enc)
}

// LoadState implements checkpoint.Snapshotter. The bucket ring is not
// serialized; after the hash section restores the index, each restored queue
// entry is pointed back at its current bucket (nil for stale entries whose
// tuple is no longer stored — expiry skips those).
func (b *IndexedFIFO) LoadState(dec *checkpoint.Decoder) error {
	b.lastExp = dec.Varint()
	b.unsorted = dec.Bool()
	b.queue.Reset()
	b.ring.Reset()
	for _, t := range dec.Tuples() {
		b.queue.Push(t)
	}
	if err := b.hash.LoadState(dec); err != nil {
		// A truncated stream can leave zero tuples in the queue whose key
		// columns would index out of range; the caller discards this state on
		// error, so do not key them.
		return err
	}
	n := b.queue.Len()
	for i := 0; i < n; i++ {
		t := b.queue.At(i)
		b.ring.Push(b.hash.buckets[t.KeyHash64(b.hash.keyCols)])
	}
	return dec.Err()
}
