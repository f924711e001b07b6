package statebuf

import (
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// Slab hands out entries from fixed pages and recycles released ones, so
// steady-state churn allocates nothing and an entry never moves. References
// are one-based; zero means none. The keyed store keeps its tuples in one,
// Table its keyed slots, negation and intersection their per-tuple entries and
// a relation its row copies. The zero value is an empty slab.
type Slab[E any] struct {
	pages []*[chunkSize]E
	used  int32   // references handed out from pages so far
	free  []int32 // released references, reused last in, first out
}

// At returns the entry ref names.
func (s *Slab[E]) At(ref int32) *E {
	i := uint32(ref - 1)
	return &s.pages[i/chunkSize][i%chunkSize]
}

// Alloc returns a fresh or recycled entry; a recycled one holds whatever its
// releaser left in it, which the caller overwrites.
func (s *Slab[E]) Alloc() (int32, *E) {
	if n := len(s.free); n > 0 {
		ref := s.free[n-1]
		s.free = s.free[:n-1]
		return ref, s.At(ref)
	}
	if int(s.used) == len(s.pages)*chunkSize {
		s.pages = append(s.pages, new([chunkSize]E))
	}
	s.used++
	return s.used, s.At(s.used)
}

// Release recycles an entry. The caller first clears what a parked entry
// must not pin.
func (s *Slab[E]) Release(ref int32) { s.free = append(s.free, ref) }

// Table is the keyed state of a stateful operator: one slot per distinct
// tuple.Key, holding the key and a payload V — a representative, a group's
// aggregates, a value's W1 and W2 multiplicities. It is the calendar's
// construction without the calendar: slots in a paged slab, one
// map[uint64]int32 from a key's digest to the head of its chain, and the key
// stored once in its slot to settle digest collisions. A lookup by row
// (Tuple.KeyHash64 and Tuple.KeyMatches) builds no Key on a hit; a lookup by
// a precomputed key (what ColBatch.Key yields) hashes it once.
//
// A slot is addressed by its reference, valid until Delete recycles it;
// payload pointers from At are valid as long. Iteration runs in slot order,
// which depends only on the sequence of inserts and deletes, so a table's
// checkpoint is the same bytes every time the same input built it. The zero
// value is an empty table.
type Table[V any] struct {
	slots Slab[tableSlot[V]]
	index map[uint64]int32 // key digest → first slot of its chain
	n     int
}

type tableSlot[V any] struct {
	key  tuple.Key
	h    uint64
	next int32 // the next slot on the digest's chain
	live bool
	val  V
}

// Len returns the number of slots.
func (tb *Table[V]) Len() int { return tb.n }

// At returns slot ref's payload.
func (tb *Table[V]) At(ref int32) *V { return &tb.slots.At(ref).val }

// Key returns slot ref's key.
func (tb *Table[V]) Key(ref int32) tuple.Key { return tb.slots.At(ref).key }

// Find returns k's slot, or 0.
func (tb *Table[V]) Find(k tuple.Key) int32 { return tb.find(k.Hash64(), k) }

func (tb *Table[V]) find(h uint64, k tuple.Key) int32 {
	ref := tb.index[h]
	for ref != 0 && tb.slots.At(ref).key != k {
		ref = tb.slots.At(ref).next
	}
	return ref
}

// FindRow returns the slot of t's key over cols, or 0, without building the
// key.
func (tb *Table[V]) FindRow(t tuple.Tuple, cols []int) int32 {
	return tb.findRow(t.KeyHash64(cols), t, cols)
}

func (tb *Table[V]) findRow(h uint64, t tuple.Tuple, cols []int) int32 {
	ref := tb.index[h]
	for ref != 0 && !t.KeyMatches(cols, tb.slots.At(ref).key) {
		ref = tb.slots.At(ref).next
	}
	return ref
}

// Upsert returns k's slot, adding one with a zero payload (fresh) when k has
// none.
func (tb *Table[V]) Upsert(k tuple.Key) (ref int32, fresh bool) {
	return tb.UpsertHashed(k.Hash64(), k)
}

// UpsertHashed is Upsert with k's digest in hand, for a caller that shares it
// with a HashedBuffer insert.
func (tb *Table[V]) UpsertHashed(h uint64, k tuple.Key) (ref int32, fresh bool) {
	if ref := tb.find(h, k); ref != 0 {
		return ref, false
	}
	return tb.insert(h, k), true
}

// UpsertRow is Upsert by t's key over cols; the key is built only when the
// slot is added.
func (tb *Table[V]) UpsertRow(t tuple.Tuple, cols []int) (ref int32, fresh bool) {
	h := t.KeyHash64(cols)
	if ref := tb.findRow(h, t, cols); ref != 0 {
		return ref, false
	}
	return tb.insert(h, t.Key(cols)), true
}

func (tb *Table[V]) insert(h uint64, k tuple.Key) int32 {
	if tb.index == nil {
		tb.index = make(map[uint64]int32)
	}
	ref, s := tb.slots.Alloc()
	s.key, s.h, s.live = k, h, true
	s.next = tb.index[h]
	tb.index[h] = ref
	tb.n++
	return ref
}

// Delete removes slot ref and recycles it, payload cleared.
func (tb *Table[V]) Delete(ref int32) {
	s := tb.slots.At(ref)
	if head := tb.index[s.h]; head == ref {
		if s.next == 0 {
			delete(tb.index, s.h)
		} else {
			tb.index[s.h] = s.next
		}
	} else {
		p := tb.slots.At(head)
		for p.next != ref {
			p = tb.slots.At(p.next)
		}
		p.next = s.next
	}
	*s = tableSlot[V]{}
	tb.slots.Release(ref)
	tb.n--
}

// Range calls fn for every slot, in slot order.
func (tb *Table[V]) Range(fn func(ref int32)) {
	for ref := int32(1); ref <= tb.slots.used; ref++ {
		if tb.slots.At(ref).live {
			fn(ref)
		}
	}
}

// SortByKey orders slot references by their keys (tuple.Key.Compare), the
// deterministic order expiration waves emit in.
func (tb *Table[V]) SortByKey(refs []int32) {
	slices.SortFunc(refs, func(a, b int32) int { return tb.slots.At(a).key.Compare(tb.slots.At(b).key) })
}

// Save writes one checkpoint section: the number of slots has picks (every
// slot when has is nil), then each one's key and payload, put writing the
// payload. Slots go in slot order. A slot holding what used to be two maps
// (δ's representative and auxiliary, negation's W1 group and W2 list, the two
// sides of an intersection) writes one section per map, so the wire format is
// the maps'; for the second section, before names the slots the first one
// wrote, and those go first. Load adds slots section by section, so that is
// the order a loaded table writes them in: save → load → save writes the same
// bytes.
func (tb *Table[V]) Save(enc *checkpoint.Encoder, has, before func(v *V) bool, put func(v *V)) {
	picked := func(v *V) bool { return has == nil || has(v) }
	n := 0
	tb.Range(func(ref int32) {
		if picked(tb.At(ref)) {
			n++
		}
	})
	enc.Uvarint(uint64(n))
	for _, early := range []bool{true, false} {
		tb.Range(func(ref int32) {
			if v := tb.At(ref); picked(v) && (before != nil && before(v)) == early {
				enc.Key(tb.Key(ref))
				put(v)
			}
		})
	}
}

// Load reads one section Save wrote into the table, adding a slot for each
// key it does not hold yet (fresh) and handing the slot's payload to get.
func (tb *Table[V]) Load(dec *checkpoint.Decoder, get func(v *V, fresh bool) error) error {
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := dec.Key()
		if dec.Err() != nil {
			break
		}
		ref, fresh := tb.Upsert(k)
		if err := get(tb.At(ref), fresh); err != nil {
			return err
		}
	}
	return dec.Err()
}
