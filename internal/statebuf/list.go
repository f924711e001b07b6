package statebuf

import (
	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// ListBuffer is the insertion-ordered list the DIRECT strategy keeps all its
// state in (Section 2.3.3, Section 6.1: "sliding windows and state buffers
// are implemented as linked lists"): the FIFO's paged deque with its head-pop
// fast path switched off for good. Insertions append; every expiration pass,
// removal and probe scans the list from the head and counts one touch per
// tuple it visits — the inefficiency the partitioned buffer eliminates. It is
// retained as the experimental baseline, whose cost model is its scans: the
// pages only keep the scans from allocating.
type ListBuffer struct{ fifo FIFOBuffer }

// NewList returns an empty list buffer.
func NewList() *ListBuffer { return &ListBuffer{fifo: FIFOBuffer{unsorted: true}} }

// Insert appends t at the tail.
func (b *ListBuffer) Insert(t tuple.Tuple) { b.fifo.Insert(t) }

// ExpireUpTo scans the entire list and removes every expired tuple.
func (b *ListBuffer) ExpireUpTo(now int64) []tuple.Tuple { return b.fifo.ExpireUpTo(now) }

// Remove scans for one tuple with values equal to t's and removes it,
// preferring an exact expiration match, else the first twin.
func (b *ListBuffer) Remove(t tuple.Tuple) bool { return b.fifo.Remove(t) }

// Scan visits stored tuples in insertion order.
func (b *ListBuffer) Scan(fn func(t tuple.Tuple) bool) { b.fifo.Scan(fn) }

// Rebind implements Buffer.
func (b *ListBuffer) Rebind(fn func(t tuple.Tuple) []tuple.Value) { b.fifo.Rebind(fn) }

// ScanAppend appends to dst the tuples live at now whose key over keyCols
// equals k, and returns the extended slice: the baseline's probe, a filtered
// scan that visits and counts every stored tuple as Scan does. It is not
// ProbeAppend on purpose: a list has no keyed access, so list-backed views
// keep refusing key lookups.
func (b *ListBuffer) ScanAppend(keyCols []int, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	items := &b.fifo.items
	b.fifo.touched += int64(items.Len())
	for i := 0; i < items.Len(); i++ {
		if t := items.At(i); !t.Expired(now) && t.KeyMatches(keyCols, k) {
			dst = append(dst, *t)
		}
	}
	return dst
}

// Len returns the number of stored tuples.
func (b *ListBuffer) Len() int { return b.fifo.Len() }

// Touched returns cumulative tuple visits.
func (b *ListBuffer) Touched() int64 { return b.fifo.Touched() }

// Kind identifies the buffer implementation (KindList).
func (b *ListBuffer) Kind() Kind { return KindList }

// SaveState implements checkpoint.Snapshotter: cost counter, then the tuples
// front to back.
func (b *ListBuffer) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(b.fifo.touched)
	b.fifo.items.Save(enc)
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter. Tuples are pushed directly
// (not via Insert) so the saved cost counter is reproduced exactly.
func (b *ListBuffer) LoadState(dec *checkpoint.Decoder) error {
	b.fifo.touched = dec.Varint()
	b.fifo.items.Load(dec)
	return dec.Err()
}
