package statebuf

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// store is the keyed store under the hash and the calendars: each stored
// tuple is an entry of a paged slab and, when the store indexes key columns,
// a link in the chain of its key's digest. Linking, unlinking, probing and
// the retraction rule are written here once.
//
// A chain runs from the head the index names along next to a tail whose next
// is zero, and the head's prev names the tail, so appending walks nothing.
// Chains keep their owner's Scan order (see link), so a keyed probe returns
// what a filtered Scan would, in the same order. Distinct keys may share a
// digest: a probe verifies each entry against its key, and a retraction
// compares full values, which subsumes it.
type store struct {
	ents    Slab[calEntry]
	keyCols []int
	index   map[uint64]int32 // key digest → chain head; nil when unindexed
	size    int              // stored tuples (stale references excluded)
	touched int64
	// scratch backs ExpireUpTo's result slice across passes (buffers are
	// pumped every maintenance tick, so per-pass allocation would dominate).
	scratch []tuple.Tuple
}

// calEntry is one stored tuple. h, next and prev are its place in the key
// index; slot is the partition it sits in (zero in a hash), or dead once a
// removal took it.
type calEntry struct {
	t          tuple.Tuple
	h          uint64
	next, prev int32
	slot       int32
}

const dead = -1

// indexOn makes the store index its entries on keyCols.
func (s *store) indexOn(keyCols []int) {
	s.keyCols = append([]int(nil), keyCols...)
	s.index = make(map[uint64]int32)
}

// alloc takes an entry for t under digest h.
func (s *store) alloc(h uint64, t tuple.Tuple) (int32, *calEntry) {
	s.touched++
	s.size++
	ref, e := s.ents.Alloc()
	e.t, e.h = t, h
	return ref, e
}

// link threads an entry into its digest's chain after every member it does
// not precede. It precedes the members in later partitions and, when its own
// partition is sorted, those there that expire after it; so the hash, with
// one unsorted partition, appends. The walk starts at the tail, so an entry
// that belongs last — every in-order insert — costs O(1).
func (s *store) link(ref int32, e *calEntry, sorted bool) {
	head := s.index[e.h]
	if head == 0 {
		e.prev, e.next = ref, 0
		s.index[e.h] = ref
		return
	}
	first := s.ents.At(head)
	for at := first.prev; ; {
		c := s.ents.At(at)
		if c.slot < e.slot || c.slot == e.slot && !(sorted && expiresBefore(e.t, c.t)) {
			e.prev, e.next = at, c.next
			if c.next != 0 {
				s.ents.At(c.next).prev = ref
			} else {
				first.prev = ref
			}
			c.next = ref
			return
		}
		if at == head {
			e.prev, e.next = first.prev, head
			first.prev = ref
			s.index[e.h] = ref
			return
		}
		at = c.prev
	}
}

// unlink takes an entry out of its chain. The member before the head is the
// tail, whose next is zero: that is how the head is told apart without
// looking the digest up.
func (s *store) unlink(e *calEntry) {
	p := s.ents.At(e.prev)
	switch {
	case p.next == 0 && e.next == 0: // the only member
		delete(s.index, e.h)
	case p.next == 0: // the head
		s.ents.At(e.next).prev = e.prev
		s.index[e.h] = e.next
	case e.next == 0: // the tail
		p.next = 0
		s.ents.At(s.index[e.h]).prev = e.prev
	default:
		p.next = e.next
		s.ents.At(e.next).prev = e.prev
	}
	e.next, e.prev = 0, 0
}

// victim names the entry a retraction of t takes — the rule every buffer
// kind follows: among the stored tuples with t's values, the one carrying t's
// exact Exp (negative tuples carry the original's, which disambiguates value
// twins), else the oldest by TS, the first in chain order on a tie. Zero
// means there is none.
func (s *store) victim(t tuple.Tuple) int32 {
	var victim int32
	for ref := s.index[t.KeyHash64(s.keyCols)]; ref != 0; {
		e := s.ents.At(ref)
		s.touched++
		if e.t.SameVals(t) {
			if e.t.Exp == t.Exp {
				return ref
			}
			victim = s.older(victim, ref)
		}
		ref = e.next
	}
	return victim
}

// older returns whichever of two entries has the lower TS, the first on a
// tie; zero stands for no entry.
func (s *store) older(best, ref int32) int32 {
	if best == 0 || s.ents.At(ref).t.TS < s.ents.At(best).t.TS {
		return ref
	}
	return best
}

// probe appends the live (Exp > now) tuples stored under key k, whose digest
// is h, to dst in chain order.
func (s *store) probe(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	for ref := s.index[h]; ref != 0; {
		e := s.ents.At(ref)
		s.touched++
		if now < e.t.Exp && e.t.KeyMatches(s.keyCols, k) {
			dst = append(dst, e.t)
		}
		ref = e.next
	}
	return dst
}

// Len returns the number of stored tuples.
func (s *store) Len() int { return s.size }

// Touched returns cumulative tuple visits.
func (s *store) Touched() int64 { return s.touched }

// Rebind implements Buffer for the hash and the calendars.
func (s *store) Rebind(fn func(t tuple.Tuple) []tuple.Value) {
	for ref := int32(1); ref <= s.ents.used; ref++ {
		if e := s.ents.At(ref); e.slot != dead {
			e.t.Vals = fn(e.t)
		}
	}
}

// reset drops every stored tuple.
func (s *store) reset() {
	s.ents = Slab[calEntry]{}
	clear(s.index)
	s.size = 0
}

// saveByDigest writes the hash section: the owner's cost counter, then the
// stored tuples chain by chain in ascending digest order, in chain order
// within one, which is the order load re-links them in.
func (s *store) saveByDigest(enc *checkpoint.Encoder, touched int64) error {
	enc.Varint(touched)
	enc.Uvarint(uint64(s.size))
	digests := make([]uint64, 0, len(s.index))
	for h := range s.index {
		digests = append(digests, h)
	}
	slices.Sort(digests)
	for _, h := range digests {
		for ref := s.index[h]; ref != 0; ref = s.ents.At(ref).next {
			enc.Tuple(s.ents.At(ref).t)
		}
	}
	return enc.Err()
}

// load reads the cost counter and the tuple run that end a hash or calendar
// section and, unless the stream failed to decode (a truncated one yields
// zero tuples whose key columns would index out of range) or holds a row
// without the key columns, re-inserts the tuples through insert after reset
// empties the buffer; the saved counter then overwrites the inserts'
// increments.
func (s *store) load(dec *checkpoint.Decoder, reset func(), insert func(tuple.Tuple)) error {
	touched, rows := dec.Varint(), dec.Tuples()
	if err := dec.Err(); err != nil {
		return err
	}
	for _, t := range rows {
		if !t.Covers(s.keyCols) {
			return fmt.Errorf("%w: a stored row of %d values lacks key columns %v", checkpoint.ErrCorrupt, len(t.Vals), s.keyCols)
		}
	}
	reset()
	for _, t := range rows {
		insert(t)
	}
	s.touched = touched
	return nil
}
