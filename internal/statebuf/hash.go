package statebuf

import (
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// HashBuffer keys stored tuples by a configured column set. It backs the
// negative-tuple strategy (Section 2.3.1: "the negative tuple approach can be
// implemented efficiently if the operator state is sorted by key so that
// expired tuples can be looked up quickly") and the UPA choice for strict
// non-monotonic state with frequent premature expirations (Section 5.3.2).
//
// Probing by key and removal driven by negative tuples are O(1) expected;
// timestamp-driven expiration requires a full scan, which is why the NT
// strategy never relies on it (windows retract tuples explicitly instead).
//
// Buckets are addressed by the composite key's 64-bit digest rather than the
// composite itself: hashing and copying the fat tuple.Key struct on every map
// operation dominated ingest profiles. Distinct keys may collide into one
// bucket, so a probe verifies each visited tuple against the probe key;
// Remove/removeExact already compare full values, which subsumes the key.
//
// Buckets are heap nodes reached through a pointer map and recycled through a
// freelist: inserts and removals mutate the node in place (a value-typed map
// entry this fat would be re-boxed by the runtime on every write), the first
// tuple lives inline in the node (most live keys hold exactly one tuple), and
// retiring a bucket parks the node — spill slice capacity and all — for the
// next fresh key, so steady-state window churn allocates nothing.
type HashBuffer struct {
	keyCols []int
	buckets map[uint64]*bucket
	size    int
	touched int64
	// free caps the recycled-node list at freeBuckets entries; beyond that
	// nodes drop to the GC.
	free []*bucket
	// scratch backs ExpireUpTo's result slice across passes, so the
	// expire-heavy steady state allocates nothing.
	scratch []tuple.Tuple
}

// bucket is one digest's tuples: the head inline, value twins (or digest
// collisions) in rest. A bucket is never empty while mapped. h records the
// digest the bucket is mapped under, so holders of a bucket pointer (the
// IndexedFIFO expiry ring) can remove from it without a map lookup.
type bucket struct {
	h    uint64
	head tuple.Tuple
	rest []tuple.Tuple
}

// freeBuckets bounds the per-buffer bucket freelist. Steady-state churn
// retires and refills buckets at the same rate, so a small cache absorbs it.
const freeBuckets = 64

// NewHash returns a hash buffer keyed on the given column positions.
func NewHash(keyCols []int) *HashBuffer {
	return &HashBuffer{
		keyCols: append([]int(nil), keyCols...),
		buckets: make(map[uint64]*bucket),
	}
}

// KeyCols returns the key column positions.
func (b *HashBuffer) KeyCols() []int { return b.keyCols }

// Insert stores t under its key.
func (b *HashBuffer) Insert(t tuple.Tuple) {
	b.insertHashed(t.KeyHash64(b.keyCols), t)
}

// InsertHashed implements HashedBuffer: stores t under a caller-computed key
// digest (which must be the Hash64 of t's key over this buffer's key
// columns).
func (b *HashBuffer) InsertHashed(h uint64, t tuple.Tuple) {
	b.insertHashed(h, t)
}

// insertHashed stores t in the digest's bucket — inline when the digest is
// fresh, spilled otherwise — and returns the bucket so callers that schedule
// later removals (the IndexedFIFO expiry ring) can hold a direct pointer.
func (b *HashBuffer) insertHashed(h uint64, t tuple.Tuple) *bucket {
	b.touched++
	bk, ok := b.buckets[h]
	if ok {
		bk.rest = append(bk.rest, t)
	} else {
		bk = b.newBucket()
		bk.h = h
		bk.head = t
		b.buckets[h] = bk
	}
	b.size++
	return bk
}

// newBucket takes a node from the freelist or allocates a fresh one.
func (b *HashBuffer) newBucket() *bucket {
	if n := len(b.free); n > 0 {
		bk := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return bk
	}
	return new(bucket)
}

// retire unmaps a drained bucket and parks its node for reuse. The head slot
// and spill entries are cleared so parked nodes pin no tuple values; the
// spill slice keeps its capacity.
func (b *HashBuffer) retire(bk *bucket) {
	delete(b.buckets, bk.h)
	bk.head = tuple.Tuple{}
	for i := range bk.rest {
		bk.rest[i] = tuple.Tuple{}
	}
	bk.rest = bk.rest[:0]
	if len(b.free) < freeBuckets {
		b.free = append(b.free, bk)
	}
}

// ExpireUpTo scans all buckets for tuples with Exp <= now. The returned
// slice is only valid until the next ExpireUpTo call on this buffer (see the
// Buffer contract).
func (b *HashBuffer) ExpireUpTo(now int64) []tuple.Tuple {
	out := b.scratch[:0]
	for _, bk := range b.buckets {
		headLive := true
		b.touched++
		if bk.head.Exp <= now {
			out = append(out, bk.head)
			headLive = false
		}
		kept := bk.rest[:0]
		for _, t := range bk.rest {
			b.touched++
			if t.Exp <= now {
				out = append(out, t)
			} else {
				kept = append(kept, t)
			}
		}
		// Zero the vacated tail so dropped tuples are not pinned.
		for i := len(kept); i < len(bk.rest); i++ {
			bk.rest[i] = tuple.Tuple{}
		}
		bk.rest = kept
		if !headLive {
			if len(kept) == 0 {
				b.retire(bk)
				continue
			}
			bk.head = kept[0]
			copy(kept, kept[1:])
			kept[len(kept)-1] = tuple.Tuple{}
			bk.rest = kept[:len(kept)-1]
		}
	}
	b.size -= len(out)
	if len(out) > 1 {
		sortExpired(out)
	}
	b.scratch = out
	return out
}

// Remove deletes one tuple with values equal to t's from its bucket,
// preferring an exact expiration match (negative tuples carry the original
// tuple's Exp, which disambiguates value twins), then the oldest match so
// retraction order is deterministic.
func (b *HashBuffer) Remove(t tuple.Tuple) bool {
	h := t.KeyHash64(b.keyCols)
	bk, ok := b.buckets[h]
	if !ok {
		return false
	}
	// Index -1 names the inline head, i >= 0 names rest[i].
	best := -2
	var bestTS int64
	b.touched++
	if bk.head.SameVals(t) {
		if bk.head.Exp == t.Exp {
			b.cutBucket(bk, -1)
			return true
		}
		best, bestTS = -1, bk.head.TS
	}
	for i := range bk.rest {
		b.touched++
		if !bk.rest[i].SameVals(t) {
			continue
		}
		if bk.rest[i].Exp == t.Exp {
			b.cutBucket(bk, i)
			return true
		}
		if best == -2 || bk.rest[i].TS < bestTS {
			best, bestTS = i, bk.rest[i].TS
		}
	}
	if best == -2 {
		return false
	}
	b.cutBucket(bk, best)
	return true
}

// cutBucket removes the inline head (i == -1) or rest[i] from the digest's
// bucket. Removal overwhelmingly targets the oldest entry (expiration follows
// insertion order). Short spill slices — the steady state of equijoin keys —
// compact by copying left, which keeps the slice anchored to its backing
// array so later twins append into recycled capacity instead of reallocating.
// Long buckets (every live twin of a key under a long window) promote the
// head with an O(1) slide instead: there the memmove dominated ingest
// profiles, and the front capacity it strands is reclaimed when append
// outgrows the remainder.
func (b *HashBuffer) cutBucket(bk *bucket, i int) {
	const slideAbove = 16
	switch {
	case i == -1 && len(bk.rest) == 0:
		b.retire(bk)
	case i == -1 && len(bk.rest) > slideAbove:
		bk.head = bk.rest[0]
		bk.rest[0] = tuple.Tuple{}
		bk.rest = bk.rest[1:]
	case i == -1:
		bk.head = bk.rest[0]
		copy(bk.rest, bk.rest[1:])
		bk.rest[len(bk.rest)-1] = tuple.Tuple{}
		bk.rest = bk.rest[:len(bk.rest)-1]
	default:
		copy(bk.rest[i:], bk.rest[i+1:])
		bk.rest[len(bk.rest)-1] = tuple.Tuple{}
		bk.rest = bk.rest[:len(bk.rest)-1]
	}
	b.size--
}

// removeExactIn deletes one tuple matching t's values AND expiration from one
// bucket, reached through a pointer the caller cached at insert time (the
// IndexedFIFO expiry ring) — no key rendering, no hashing, no map access; it
// reports false when no exact twin is stored. The bucket may have been
// retired and even recycled for a different digest since the pointer was
// taken; the full value-and-expiration comparison then matches nothing
// (foreign keys differ in their key columns, and a parked bucket is empty),
// which is exactly the stale-entry contract.
func (b *HashBuffer) removeExactIn(bk *bucket, t tuple.Tuple) bool {
	b.touched++
	if bk.head.Exp == t.Exp && bk.head.SameVals(t) {
		b.cutBucket(bk, -1)
		return true
	}
	for i := range bk.rest {
		b.touched++
		if bk.rest[i].Exp == t.Exp && bk.rest[i].SameVals(t) {
			b.cutBucket(bk, i)
			return true
		}
	}
	return false
}

// ProbeAppend implements ProbeAppender: live (Exp > now) tuples stored under
// k are appended to dst in bucket order.
func (b *HashBuffer) ProbeAppend(k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.ProbeAppendHashed(k.Hash64(), k, now, dst)
}

// ProbeAppendHashed is ProbeAppend with k's digest already in hand; k itself
// still verifies each visited tuple, since distinct keys can share a digest.
func (b *HashBuffer) ProbeAppendHashed(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	bk, ok := b.buckets[h]
	if !ok {
		return dst
	}
	b.touched++
	if bk.head.Exp > now && bk.head.KeyMatches(b.keyCols, k) {
		dst = append(dst, bk.head)
	}
	for _, t := range bk.rest {
		b.touched++
		if now >= t.Exp || !t.KeyMatches(b.keyCols, k) {
			continue
		}
		dst = append(dst, t)
	}
	return dst
}

// Scan visits every stored tuple (bucket order is unspecified).
func (b *HashBuffer) Scan(fn func(t tuple.Tuple) bool) {
	for _, bk := range b.buckets {
		b.touched++
		if !fn(bk.head) {
			return
		}
		for _, t := range bk.rest {
			b.touched++
			if !fn(t) {
				return
			}
		}
	}
}

// Len returns the number of stored tuples.
func (b *HashBuffer) Len() int { return b.size }

// Touched returns cumulative tuple visits.
func (b *HashBuffer) Touched() int64 { return b.touched }

// Kind identifies the buffer implementation (KindHash).
func (b *HashBuffer) Kind() Kind { return KindHash }

// SaveState implements checkpoint.Snapshotter: cost counter, then the stored
// tuples, bucket by bucket in ascending digest order and in bucket order
// within one, which is the order LoadState re-keys them back into.
func (b *HashBuffer) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.touched)
	enc.Uvarint(uint64(b.size))
	digests := make([]uint64, 0, len(b.buckets))
	for h := range b.buckets {
		digests = append(digests, h)
	}
	slices.Sort(digests)
	for _, h := range digests {
		bk := b.buckets[h]
		enc.Tuple(bk.head)
		for _, t := range bk.rest {
			enc.Tuple(t)
		}
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter: tuples are re-inserted (the
// key columns come from the plan-built configuration), then the saved cost
// counter overwrites the inserts' increments.
func (b *HashBuffer) LoadState(dec *checkpoint.Decoder) error {
	touched := dec.Varint()
	b.buckets = make(map[uint64]*bucket)
	b.size = 0
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		t := dec.Tuple()
		// Check the latch before inserting: a truncated stream yields a zero
		// tuple whose key columns would index out of range.
		if dec.Err() != nil {
			break
		}
		b.Insert(t)
	}
	b.touched = touched
	return dec.Err()
}
