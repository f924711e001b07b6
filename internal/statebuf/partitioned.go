package statebuf

import (
	"fmt"
	"math"

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
// Every stored tuple is an entry of the keyed store; a partition is a run of
// entry references with a head offset, so popping due entries moves the
// offset instead of shifting the remainder, and a sorted insert shifts
// four-byte references instead of tuples.
//
// Built with key columns, the calendar also chains its entries by key digest
// in Scan order — partition slot, then position within the partition: probes
// and retractions walk one digest's chain, and a retracted entry stays in its
// partition as a stale reference that is skipped and released when it fires.
// Without key columns there is no index (and no probe interface, see
// keyedCalendar), and Remove goes to the one partition the retraction's Exp
// names.
type PartitionedBuffer struct {
	store
	width int64 // expiration-time span covered by one partition
	// parts[:cal] is the circular calendar, parts[cal] the overflow area for
	// tuples whose Exp lies beyond the horizon or is NeverExpires.
	parts  []partition
	cal    int
	lowBkt int64 // lowest expiration bucket not yet fully expired
	byExp  bool  // partitions sorted by Exp (eager) vs insertion order (lazy)
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

// NewPartitioned builds a buffer with n partitions covering a rolling
// expiration horizon of the given length (typically the window size: every
// window-derived tuple satisfies Exp <= now + horizon). byExp selects the
// eager variant with partitions sorted by expiration time. One extra
// partition is allocated internally so that the live bucket span never wraps
// onto itself.
func NewPartitioned(n int, horizon int64, byExp bool) *PartitionedBuffer {
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
	return &PartitionedBuffer{
		width: width,
		parts: make([]partition, n+2),
		cal:   n + 1,
		byExp: byExp,
	}
}

// reset drops every stored tuple, leaving the cursor alone.
func (b *PartitionedBuffer) reset() {
	clear(b.parts)
	b.store.reset()
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
	b.file(b.alloc(h, t))
}

// file puts an entry into its partition — at the tail, or at its (Exp, TS)
// position in a sorted partition — and into its key chain.
func (b *PartitionedBuffer) file(ref int32, e *calEntry) {
	slot := b.slotFor(e.t.Exp)
	e.slot = int32(slot)
	p := &b.parts[slot]
	p.push(ref)
	sorted := b.byExp && slot != b.cal // the overflow area never is
	if sorted {
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
		b.link(ref, e, sorted)
	}
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
			p.refs = p.refs[:p.head+len(kept)]
			p.pop(0)
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
	for pi := range b.parts {
		for _, ref := range b.parts[pi].live() {
			if e := b.ents.At(ref); e.slot != dead && !fn(ref, e) {
				return
			}
		}
	}
}

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
	b.each(func(_ int32, e *calEntry) bool { enc.Tuple(e.t); return true })
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter. The cursor is restored before
// re-inserting so every tuple lands in the bucket it occupied at save time
// (live buckets all lie in [lowBkt, lowBkt+cal), so placement is
// deterministic) and, arriving in Scan order, at the same place in its key
// chain; the saved cost counter then overwrites the inserts' increments.
func (b *PartitionedBuffer) LoadState(dec *checkpoint.Decoder) error {
	b.lowBkt = dec.Varint()
	return b.load(dec, b.reset, b.Insert)
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
	return b.saveByDigest(enc)
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
	b.touched = touched
	return nil
}
