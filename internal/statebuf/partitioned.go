package statebuf

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// PartitionedBuffer is the update-pattern-aware structure of Section 5.3.2
// and Figure 7: the keyed store's entries filed in a Calendar, so weak
// non-monotonic state — where insertion order differs from expiration order —
// gets O(1)-ish insertion (locate the partition by the tuple's Exp) and
// expiration that touches only the partitions that are due, instead of the
// full sequential scans the DIRECT baseline performs.
//
// Partitions are either kept sorted by expiration time (for operators that
// must expire eagerly) or in insertion order (for lazily-maintained state),
// per the paper's two variants. More partitions mean less state scanned per
// insertion/expiration at the price of per-partition overhead — the trade-off
// explored by the partition-sweep experiment.
//
// Built with key columns, the buffer also chains its entries by key digest
// in Scan order — partition slot, then position within the partition: probes
// and retractions walk one digest's chain. Without key columns there is no
// index (and no probe interface, see keyedCalendar), and Remove goes to the
// one partition the retraction's Exp names. Either way a retracted entry
// stays in its partition as a stale reference that is skipped and released
// when it fires.
type PartitionedBuffer struct {
	store
	cal Calendar
}

// NewPartitioned builds a buffer with n partitions (DefaultPartitions when
// not positive) covering a rolling expiration horizon of the given length
// (typically the window size: every window-derived tuple satisfies
// Exp <= now + horizon). byExp selects the eager variant with partitions
// sorted by expiration time.
func NewPartitioned(n int, horizon int64, byExp bool) *PartitionedBuffer {
	b := &PartitionedBuffer{cal: newCalendar(n, horizon, byExp)}
	b.cal.at = func(ref int32) (*tuple.Tuple, bool) {
		e := b.ents.At(ref)
		return &e.t, e.slot != dead
	}
	b.cal.refiled = func(ref int32, slot int) {
		if b.index != nil {
			e := b.ents.At(ref)
			b.unlink(e)
			e.slot = int32(slot)
			b.link(ref, e, b.cal.sorted(slot))
		}
	}
	return b
}

// reset drops every stored tuple, leaving the cursor alone.
func (b *PartitionedBuffer) reset() {
	b.cal.reset()
	b.store.reset()
}

// Partitions returns the configured partition count (excluding the internal
// wrap-guard partition).
func (b *PartitionedBuffer) Partitions() int { return b.cal.span - 1 }

// Insert places t in the partition covering its expiration time. Tuples
// whose expiration lies beyond the current horizon (or never expire) go to an
// overflow area and are migrated back as the horizon advances.
func (b *PartitionedBuffer) Insert(t tuple.Tuple) {
	var h uint64
	if b.index != nil {
		h = t.KeyHash64(b.keyCols)
	}
	b.file(b.alloc(h, t))
}

// file puts an entry into its partition and into its key chain.
func (b *PartitionedBuffer) file(ref int32, e *calEntry) {
	slot := b.cal.Insert(ref, &e.t)
	e.slot = int32(slot)
	if b.index != nil {
		b.link(ref, e, b.cal.sorted(slot))
	}
}

// ExpireUpTo removes and returns every tuple with Exp <= now, releasing the
// stale references the calendar hands back with them. The returned slice is
// only valid until the next ExpireUpTo call on this buffer (see the Buffer
// contract).
func (b *PartitionedBuffer) ExpireUpTo(now int64) []tuple.Tuple {
	out := b.scratch[:0]
	for _, ref := range b.cal.Expire(now) {
		e := b.ents.At(ref)
		if e.slot != dead {
			out = append(out, e.t)
			b.size--
			if b.index != nil {
				b.unlink(e)
			}
		}
		// Only the value slice is cleared (a parked entry must pin no tuple);
		// alloc's caller overwrites the rest.
		e.t.Vals = nil
		b.ents.Release(ref)
	}
	b.scratch = out
	return out
}

// Remove deletes the stored tuple the retraction rule names (store.victim).
// An indexed calendar walks the chain of t's key. One without an index goes
// straight to the partition t.Exp names, where an exact twin can only be, and
// looks through the others only for a retraction whose Exp no twin carries.
// The entry's reference stays in its partition and is skipped when it fires.
func (b *PartitionedBuffer) Remove(t tuple.Tuple) bool {
	var victim int32
	if b.index != nil {
		victim = b.victim(t)
	} else if victim = b.exactTwin(t); victim == 0 {
		b.each(func(ref int32, e *calEntry) bool {
			b.touched++
			if e.t.SameVals(t) {
				victim = b.older(victim, ref)
			}
			return true
		})
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
	for _, f := range b.cal.parts[b.cal.slotFor(t.Exp)].live() {
		e := b.ents.At(f.ref)
		if e.slot == dead {
			continue
		}
		b.touched++
		if e.t.Exp == t.Exp && e.t.SameVals(t) {
			return f.ref
		}
	}
	return 0
}

// Scan visits all stored tuples, partition by partition, the overflow area
// last.
func (b *PartitionedBuffer) Scan(fn func(t tuple.Tuple) bool) {
	b.each(func(_ int32, e *calEntry) bool {
		b.touched++
		return fn(e.t)
	})
}

// each calls fn with every stored entry in Scan order, counting no visit,
// until fn returns false.
func (b *PartitionedBuffer) each(fn func(ref int32, e *calEntry) bool) {
	b.cal.each(func(ref int32) bool {
		e := b.ents.At(ref)
		return e.slot == dead || fn(ref, e)
	})
}

// Touched returns cumulative tuple visits: the store's and the calendar's.
func (b *PartitionedBuffer) Touched() int64 { return b.touched + b.cal.touched }

// Kind identifies the buffer implementation (KindPartitioned).
func (b *PartitionedBuffer) Kind() Kind { return KindPartitioned }

// SaveState implements checkpoint.Snapshotter: the calendar cursor, the cost
// counter, then the tuples (partitions in slot order, then overflow). Width,
// partition count, the byExp variant and the key columns come from the
// plan-built configuration and are not serialized; stale references are not
// state and are not written.
func (b *PartitionedBuffer) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.cal.lowBkt)
	enc.Varint(b.Touched())
	enc.Uvarint(uint64(b.size))
	b.each(func(_ int32, e *calEntry) bool { enc.Tuple(e.t); return true })
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter. The cursor is restored before
// re-inserting so every tuple lands in the bucket it occupied at save time
// (live buckets all lie in [lowBkt, lowBkt+span), so placement is
// deterministic) and, arriving in Scan order, at the same place in its key
// chain; the saved cost counter then overwrites the inserts' increments.
func (b *PartitionedBuffer) LoadState(dec *checkpoint.Decoder) error {
	b.cal.lowBkt = dec.Varint()
	err := b.load(dec, b.reset, b.Insert)
	b.cal.touched = 0
	return err
}

// keyedCalendar is a PartitionedBuffer built with key columns. It is the same
// structure; the type exists so that only a calendar that has an index
// satisfies ProbeAppender and HashedBuffer, which is
// how joins, views and replays decide between a keyed probe and a scan.
type keyedCalendar struct{ *PartitionedBuffer }

// KeyCols returns the indexed column positions.
func (b keyedCalendar) KeyCols() []int { return b.keyCols }

// InsertHashed implements HashedBuffer (see HashBuffer.InsertHashed).
func (b keyedCalendar) InsertHashed(h uint64, t tuple.Tuple) { b.file(b.alloc(h, t)) }

// ProbeAppend implements ProbeAppender: the live tuples under key k, in Scan
// order. Distinct keys can share a digest, so each is verified against k.
func (b keyedCalendar) ProbeAppend(k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.probe(k.Hash64(), k, now, dst)
}

// ProbeAppendHashed implements HashedBuffer (see
// HashBuffer.ProbeAppendHashed).
func (b keyedCalendar) ProbeAppendHashed(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	return b.probe(h, k, now, dst)
}

// indexedFIFO is what New builds for KindIndexedFIFO, the UPA structure for
// probed weakest non-monotonic state: a keyed calendar whose one partition,
// kept sorted by Exp, spans all time. Expiration order is insertion order
// there, so an insert appends, expiry pops the due prefix and a probe walks
// one key's chain. An insert out of order (a union of windows of different
// sizes) takes the sorted partition's binary-search insert.
type indexedFIFO struct{ keyedCalendar }

func newIndexedFIFO(keyCols []int) indexedFIFO {
	b := NewPartitioned(1, math.MaxInt64, true)
	b.indexOn(keyCols)
	return indexedFIFO{keyedCalendar{b}}
}

// Kind identifies the buffer implementation (KindIndexedFIFO).
func (b indexedFIFO) Kind() Kind { return KindIndexedFIFO }

// SaveState implements checkpoint.Snapshotter in the indexed-FIFO section
// layout: the highest queued Exp, the out-of-order flag, the queue, then the
// hash section (store.saveByDigest). The queue is the stored tuples in
// expiration order, so it holds no stale entry and the flag is never set.
func (b indexedFIFO) SaveState(enc *checkpoint.Encoder) error {
	var queue []tuple.Tuple
	var last int64
	b.each(func(_ int32, e *calEntry) bool { queue, last = append(queue, e.t), e.t.Exp; return true })
	enc.Varint(last)
	enc.Bool(false)
	enc.Tuples(queue)
	return b.saveByDigest(enc, b.Touched())
}

// LoadState implements checkpoint.Snapshotter. The hash section names the
// stored tuples, the queue their order: a queue entry is re-inserted, in
// queue order, if its digest's chain has a twin left for it. Matching runs
// from the back, as a retraction takes the first of equal twins; stale
// entries, which a section written before the keyed store may hold, find
// none. Equal (Exp, TS) thus keep arrival order, and an ordered queue loads
// by appends.
func (b indexedFIFO) LoadState(dec *checkpoint.Decoder) error {
	dec.Varint()
	dec.Bool()
	queue := dec.Tuples()
	touched, rows := dec.Varint(), dec.Tuples()
	if err := dec.Err(); err != nil {
		return err
	}
	chains := make(map[uint64][]tuple.Tuple)
	for _, t := range rows {
		h := t.KeyHash64(b.keyCols)
		chains[h] = append(chains[h], t)
	}
	live := len(queue) // queue[live:] are the survivors
	for i := len(queue) - 1; i >= 0; i-- {
		q, h := queue[i], queue[i].KeyHash64(b.keyCols)
		c := chains[h]
		if n := len(c) - 1; n >= 0 && c[n].TS == q.TS && c[n].Exp == q.Exp && c[n].SameVals(q) {
			live, chains[h] = live-1, c[:n]
			queue[live] = q
		}
	}
	if len(queue)-live != len(rows) {
		return fmt.Errorf("%w: indexed-FIFO queue lacks stored tuples", checkpoint.ErrCorrupt)
	}
	b.reset()
	for _, t := range queue[live:] {
		b.Insert(t)
	}
	b.touched, b.cal.touched = touched, 0
	return nil
}
