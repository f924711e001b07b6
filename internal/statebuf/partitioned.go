package statebuf

import (
	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// PartitionedBuffer is the update-pattern-aware structure of Section 5.3.2
// and Figure 7: a circular array of partitions, each covering a fixed span of
// expiration time, so the buffer behaves like a calendar queue over
// expirations. Weak non-monotonic state — where insertion order differs from
// expiration order — gets O(1)-ish insertion (locate the partition by the
// tuple's Exp) and expiration that touches only the partitions that are due,
// instead of the full sequential scans the DIRECT baseline performs.
//
// Partitions are either kept sorted by expiration time (for operators that
// must expire eagerly) or in insertion order (for lazily-maintained state),
// per the paper's two variants. More partitions mean less state scanned per
// insertion/expiration at the price of per-partition overhead — the trade-off
// explored by the partition-sweep experiment.
//
// Every stored tuple is one entry of a paged slab; a partition is a run of
// entry references with a head offset, so popping due entries moves the
// offset instead of shifting the remainder, and a sorted insert shifts
// four-byte references instead of tuples.
//
// Built with key columns, the calendar also chains its entries by key digest
// (the construction IndexedFIFO is over HashBuffer, with the storage shared
// instead of mirrored): probes and retractions walk one digest's chain, and a
// retracted entry stays in its partition as a stale reference that is skipped
// and released when it fires. A chain is kept in Scan order — partition slot,
// then position within the partition — so a keyed probe returns exactly what
// a filtered Scan would, in the same order. Without key columns there is no
// index (and no probe interface, see keyedCalendar), and Remove goes to the
// one partition the retraction's Exp names.
type PartitionedBuffer struct {
	width int64 // expiration-time span covered by one partition
	// parts[:cal] is the circular calendar, parts[cal] the overflow area for
	// tuples whose Exp lies beyond the horizon or is NeverExpires.
	parts   []partition
	cal     int
	lowBkt  int64 // lowest expiration bucket not yet fully expired
	size    int   // live tuples (stale references excluded)
	byExp   bool  // partitions sorted by Exp (eager) vs insertion order (lazy)
	touched int64
	ents    Slab[calEntry]
	keyCols []int
	index   map[uint64]int32 // key digest → first entry of its chain; nil when unkeyed
	// scratch backs ExpireUpTo's result slice across passes (the calendar is
	// pumped every maintenance tick, so per-pass allocation would dominate).
	scratch []tuple.Tuple
}

// partition is a run of entry references; refs[:head] have already fired.
type partition struct {
	refs []int32
	head int
}

func (p *partition) live() []int32 { return p.refs[p.head:] }

// push appends ref. A full run whose fired prefix is at least half of it is
// slid down first instead of grown, so a partition that is popped and pushed
// at once stays bounded by its peak live size.
func (p *partition) push(ref int32) {
	if len(p.refs) == cap(p.refs) && p.head > 0 && p.head >= len(p.refs)/2 {
		p.refs = p.refs[:copy(p.refs, p.refs[p.head:])]
		p.head = 0
	}
	p.refs = append(p.refs, ref)
}

// pop drops the first n live references.
func (p *partition) pop(n int) {
	p.head += n
	if p.head == len(p.refs) {
		p.refs, p.head = p.refs[:0], 0
	}
}

// truncate keeps the first n live references.
func (p *partition) truncate(n int) {
	p.refs = p.refs[:p.head+n]
	p.pop(0)
}

// calEntry is one stored tuple. slot is the partition it sits in, or dead
// once a retraction removed it ahead of its expiration; h, next and prev are
// its place in the key index.
type calEntry struct {
	t          tuple.Tuple
	h          uint64
	next, prev int32
	slot       int32
}

const dead = -1

// NewPartitioned builds a buffer with n partitions covering a rolling
// expiration horizon of the given length (typically the window size: every
// window-derived tuple satisfies Exp <= now + horizon). byExp selects the
// eager variant with partitions sorted by expiration time. One extra
// partition is allocated internally so that the live bucket span never wraps
// onto itself.
func NewPartitioned(n int, horizon int64, byExp bool) *PartitionedBuffer {
	return newCalendar(n, horizon, byExp, nil)
}

// newCalendar is NewPartitioned plus the key columns to index (none: no
// index).
func newCalendar(n int, horizon int64, byExp bool, keyCols []int) *PartitionedBuffer {
	if n < 1 {
		n = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	width := (horizon + int64(n) - 1) / int64(n)
	if width < 1 {
		width = 1
	}
	b := &PartitionedBuffer{
		width: width,
		parts: make([]partition, n+2),
		cal:   n + 1,
		byExp: byExp,
	}
	if len(keyCols) > 0 {
		b.keyCols = append([]int(nil), keyCols...)
		b.index = make(map[uint64]int32)
	}
	return b
}

// reset drops every stored tuple, leaving the cursor alone.
func (b *PartitionedBuffer) reset() {
	clear(b.parts)
	b.ents = Slab[calEntry]{}
	clear(b.index)
	b.size = 0
}

// Partitions returns the configured partition count (excluding the internal
// wrap-guard partition).
func (b *PartitionedBuffer) Partitions() int { return b.cal - 1 }

func (b *PartitionedBuffer) bucket(exp int64) int64 { return exp / b.width }

func (b *PartitionedBuffer) slot(bkt int64) int { return int(bkt % int64(b.cal)) }

// slotFor names the partition that holds a tuple expiring at exp: the one
// covering exp, the lowest live one when exp is already past due (so the next
// expiration pass returns it), the overflow area when exp lies beyond the
// horizon or never comes. The answer only changes in ExpireUpTo, which moves
// what it affects, so it also locates a stored tuple from its Exp alone.
func (b *PartitionedBuffer) slotFor(exp int64) int {
	if exp == tuple.NeverExpires {
		return b.cal
	}
	bkt := max(b.bucket(exp), b.lowBkt)
	if bkt >= b.lowBkt+int64(b.cal) {
		return b.cal
	}
	return b.slot(bkt)
}

// Insert places t in the partition covering its expiration time. Tuples
// whose expiration lies beyond the current horizon (or never expire) go to an
// overflow area and are migrated back as the horizon advances.
func (b *PartitionedBuffer) Insert(t tuple.Tuple) {
	var h uint64
	if b.index != nil {
		h = t.KeyHash64(b.keyCols)
	}
	b.insertHashed(h, t)
}

func (b *PartitionedBuffer) insertHashed(h uint64, t tuple.Tuple) {
	b.touched++
	b.size++
	ref, e := b.ents.Alloc()
	e.t, e.h = t, h
	b.file(ref, e)
}

// file puts an entry into its partition — at the tail, or at its (Exp, TS)
// position in a sorted partition — and into its key chain.
func (b *PartitionedBuffer) file(ref int32, e *calEntry) {
	slot := b.slotFor(e.t.Exp)
	e.slot = int32(slot)
	p := &b.parts[slot]
	p.push(ref)
	if b.sorted(slot) {
		live := p.live()
		i := len(live) - 1
		if i > 0 && expiresBefore(e.t, b.ents.At(live[i-1]).t) {
			// Out of order: binary search for the first entry expiring later.
			lo, hi := 0, i
			for lo < hi {
				if mid := (lo + hi) / 2; expiresBefore(e.t, b.ents.At(live[mid]).t) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			b.touched += int64(i - lo) // shifted references
			copy(live[lo+1:], live[lo:])
			live[lo] = ref
		}
	}
	if b.index != nil {
		b.link(ref, e)
	}
}

// sorted reports whether a partition is kept in (Exp, TS) order; the
// overflow area never is.
func (b *PartitionedBuffer) sorted(slot int) bool { return b.byExp && slot != b.cal }

// link threads a just-filed entry into its digest's chain at its Scan
// position: after every member in an earlier partition and, within its own,
// after every member that does not expire later (a sorted partition) or after
// all of them (insertion order).
func (b *PartitionedBuffer) link(ref int32, e *calEntry) {
	var prev int32
	next := b.index[e.h]
	sorted := b.sorted(int(e.slot))
	for next != 0 {
		c := b.ents.At(next)
		if c.slot > e.slot || c.slot == e.slot && sorted && expiresBefore(e.t, c.t) {
			break
		}
		prev, next = next, c.next
	}
	e.prev, e.next = prev, next
	if next != 0 {
		b.ents.At(next).prev = ref
	}
	if prev != 0 {
		b.ents.At(prev).next = ref
	} else {
		b.index[e.h] = ref
	}
}

// unlink takes an entry out of its chain.
func (b *PartitionedBuffer) unlink(e *calEntry) {
	if e.next != 0 {
		b.ents.At(e.next).prev = e.prev
	}
	switch {
	case e.prev != 0:
		b.ents.At(e.prev).next = e.next
	case e.next != 0:
		b.index[e.h] = e.next
	default:
		delete(b.index, e.h)
	}
	e.next, e.prev = 0, 0
}

// fire releases a reference leaving its partition, appending the tuple to
// out unless the entry is stale. Only the value slice is cleared (a parked
// entry must pin no tuple); alloc's caller overwrites the rest.
func (b *PartitionedBuffer) fire(ref int32, out []tuple.Tuple) []tuple.Tuple {
	e := b.ents.At(ref)
	if e.slot != dead {
		out = append(out, e.t)
		b.size--
		if b.index != nil {
			b.unlink(e)
		}
	}
	e.t.Vals = nil
	b.ents.Release(ref)
	return out
}

// ExpireUpTo removes and returns every tuple with Exp <= now, visiting only
// the partitions whose buckets are due plus the boundary partition. The
// returned slice is only valid until the next ExpireUpTo call on this buffer
// (see the Buffer contract).
func (b *PartitionedBuffer) ExpireUpTo(now int64) []tuple.Tuple {
	out := b.scratch[:0]
	hi := b.bucket(now)
	// Fully-due buckets: everything in them expires. Occupied buckets all lie
	// in [lowBkt, lowBkt+cal), so cap the walk at one full cycle even if time
	// jumped far ahead.
	for bkt := b.lowBkt; bkt < min(hi, b.lowBkt+int64(b.cal)); bkt++ {
		p := &b.parts[b.slot(bkt)]
		b.touched += int64(len(p.live()))
		for _, ref := range p.live() {
			out = b.fire(ref, out)
		}
		p.pop(len(p.live()))
	}
	if hi >= b.lowBkt && hi < b.lowBkt+int64(b.cal) {
		// Boundary bucket: partially due.
		p := &b.parts[b.slot(hi)]
		switch live := p.live(); {
		case len(live) == 0:
		case b.byExp:
			// Sorted: expired tuples are a prefix.
			i := 0
			for i < len(live) && b.ents.At(live[i]).t.Exp <= now {
				out = b.fire(live[i], out)
				i++
			}
			b.touched += int64(i) + 1
			p.pop(i)
		default:
			b.touched += int64(len(live))
			kept := live[:0]
			for _, ref := range live {
				if e := b.ents.At(ref); e.t.Exp <= now || e.slot == dead {
					out = b.fire(ref, out)
				} else {
					kept = append(kept, ref)
				}
			}
			p.truncate(len(kept))
		}
	}
	if hi > b.lowBkt {
		b.lowBkt = hi
	}
	out = b.drainOverflow(now, out)
	if len(out) > 1 {
		sortExpired(out)
	}
	b.scratch = out
	return out
}

// drainOverflow migrates overflow tuples that are now within the horizon (or
// already expired) back into the calendar, and drops stale references.
func (b *PartitionedBuffer) drainOverflow(now int64, out []tuple.Tuple) []tuple.Tuple {
	p := &b.parts[b.cal]
	kept := p.refs[:0]
	for _, ref := range p.refs {
		b.touched++
		e := b.ents.At(ref)
		switch {
		case e.slot == dead || e.t.Exp <= now:
			out = b.fire(ref, out)
		case b.slotFor(e.t.Exp) != b.cal:
			if b.index != nil {
				b.unlink(e)
			}
			b.file(ref, e)
		default:
			kept = append(kept, ref)
		}
	}
	p.refs = kept
	return out
}

// Remove deletes one stored tuple with values equal to t's: the one with t's
// exact expiration if there is one (negative tuples carry the original
// tuple's Exp, which disambiguates value twins), else the oldest by TS — the
// rule every buffer kind follows. An indexed calendar walks the chain of t's
// key. One without an index goes straight to the partition t.Exp names, where
// an exact twin can only be, and looks through the others only for a
// retraction whose Exp no twin carries. The entry's reference stays in its
// partition and is skipped when it fires.
func (b *PartitionedBuffer) Remove(t tuple.Tuple) bool {
	var victim int32
	if b.index != nil {
		for ref := b.index[t.KeyHash64(b.keyCols)]; ref != 0; {
			e := b.ents.At(ref)
			b.touched++
			if e.t.SameVals(t) {
				if e.t.Exp == t.Exp {
					victim = ref
					break
				}
				victim = b.older(victim, ref)
			}
			ref = e.next
		}
	} else if victim = b.exactTwin(t); victim == 0 {
		for pi := range b.parts {
			for _, ref := range b.parts[pi].live() {
				e := b.ents.At(ref)
				if e.slot == dead {
					continue
				}
				b.touched++
				if e.t.SameVals(t) {
					victim = b.older(victim, ref)
				}
			}
		}
	}
	if victim == 0 {
		return false
	}
	e := b.ents.At(victim)
	if b.index != nil {
		b.unlink(e)
	}
	// Exp and TS stay: a stale reference keeps its place in a sorted run.
	e.slot, e.t.Vals = dead, nil
	b.size--
	return true
}

// exactTwin finds the first stored tuple with t's values and t's Exp by
// looking only where such a tuple can be.
func (b *PartitionedBuffer) exactTwin(t tuple.Tuple) int32 {
	for _, ref := range b.parts[b.slotFor(t.Exp)].live() {
		e := b.ents.At(ref)
		if e.slot == dead {
			continue
		}
		b.touched++
		if e.t.Exp == t.Exp && e.t.SameVals(t) {
			return ref
		}
	}
	return 0
}

// older returns whichever of two entries has the lower TS, the first on a
// tie; zero stands for no entry.
func (b *PartitionedBuffer) older(best, ref int32) int32 {
	if best == 0 || b.ents.At(ref).t.TS < b.ents.At(best).t.TS {
		return ref
	}
	return best
}

// Scan visits all stored tuples, partition by partition, the overflow area
// last.
func (b *PartitionedBuffer) Scan(fn func(t tuple.Tuple) bool) {
	for pi := range b.parts {
		for _, ref := range b.parts[pi].live() {
			e := b.ents.At(ref)
			if e.slot == dead {
				continue
			}
			b.touched++
			if !fn(e.t) {
				return
			}
		}
	}
}

// Len returns the number of stored tuples.
func (b *PartitionedBuffer) Len() int { return b.size }

// Touched returns cumulative tuple visits.
func (b *PartitionedBuffer) Touched() int64 { return b.touched }

// Kind identifies the buffer implementation (KindPartitioned).
func (b *PartitionedBuffer) Kind() Kind { return KindPartitioned }

// SaveState implements checkpoint.Snapshotter: the calendar cursor, the cost
// counter, then the tuples (partitions in slot order, then overflow). Width,
// partition count, the byExp variant and the key columns come from the
// plan-built configuration and are not serialized; stale references are not
// state and are not written.
func (b *PartitionedBuffer) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.lowBkt)
	enc.Varint(b.touched)
	enc.Uvarint(uint64(b.size))
	for pi := range b.parts {
		for _, ref := range b.parts[pi].live() {
			if e := b.ents.At(ref); e.slot != dead {
				enc.Tuple(e.t)
			}
		}
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter. The cursor is restored before
// re-inserting so every tuple lands in the bucket it occupied at save time
// (live buckets all lie in [lowBkt, lowBkt+cal), so placement is
// deterministic) and, arriving in Scan order, at the same place in its key
// chain; the saved cost counter then overwrites the inserts' increments.
func (b *PartitionedBuffer) LoadState(dec *checkpoint.Decoder) error {
	b.lowBkt = dec.Varint()
	touched := dec.Varint()
	b.reset()
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		t := dec.Tuple()
		// Check the latch before inserting so a truncated stream cannot
		// plant a zero tuple in a live bucket (or index its missing columns).
		if dec.Err() != nil {
			break
		}
		b.Insert(t)
	}
	b.touched = touched
	return dec.Err()
}

// keyedCalendar is a PartitionedBuffer built with key columns. It is the same
// structure; the type exists so that only a calendar that has an index
// satisfies ProbeAppender and HashedBuffer, which is
// how joins, views and replays decide between a keyed probe and a scan.
type keyedCalendar struct{ *PartitionedBuffer }

// KeyCols returns the indexed column positions.
func (b keyedCalendar) KeyCols() []int { return b.keyCols }

// InsertHashed implements HashedBuffer (see HashBuffer.InsertHashed).
func (b keyedCalendar) InsertHashed(h uint64, t tuple.Tuple) { b.insertHashed(h, t) }

// ProbeAppend implements ProbeAppender: the live tuples under key k, in Scan
// order. Distinct keys can share a digest, so each is verified against k.
func (b keyedCalendar) ProbeAppend(k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.ProbeAppendHashed(k.Hash64(), k, now, dst)
}

// ProbeAppendHashed implements HashedBuffer (see
// HashBuffer.ProbeAppendHashed).
func (b keyedCalendar) ProbeAppendHashed(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	for ref := b.index[h]; ref != 0; {
		e := b.ents.At(ref)
		b.touched++
		if now < e.t.Exp && e.t.KeyMatches(b.keyCols, k) {
			dst = append(dst, e.t)
		}
		ref = e.next
	}
	return dst
}
