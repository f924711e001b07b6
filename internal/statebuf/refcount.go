package statebuf

// RefCount tracks how many registered queries reference a shared resource —
// a canonicalized plan node and the state buffers behind it, or a shared
// window source. The multi-query executor acquires one reference per
// registered query that maps onto the node and releases it on Unregister;
// when the count returns to zero the node is orphaned and its buffers are
// cleared so their pages return to the chunk arenas immediately instead of
// waiting for the collector to chase per-tuple references.
//
// RefCount is not synchronized: the executor mutates registrations only
// between runs, under the same single-writer discipline as ingest itself.
type RefCount struct {
	n int
}

// NewRefCount returns a counter holding one reference.
func NewRefCount() *RefCount { return &RefCount{n: 1} }

// Acquire adds a reference and returns the new count.
func (r *RefCount) Acquire() int {
	r.n++
	return r.n
}

// Release drops a reference and returns the remaining count. Releasing an
// already-zero counter stays at zero rather than going negative.
func (r *RefCount) Release() int {
	if r.n > 0 {
		r.n--
	}
	return r.n
}

// Count returns the current reference count.
func (r *RefCount) Count() int { return r.n }

// Clearer is implemented by buffers that can drop all stored tuples at once,
// releasing backing pages to their freelists and cutting every retained
// tuple reference in O(pages) rather than O(tuples).
type Clearer interface {
	Clear()
}

// Drop clears b's stored tuples if the implementation supports wholesale
// clearing; otherwise it is a no-op (the buffer is simply left to the
// collector). All statebuf implementations support it.
func Drop(b Buffer) {
	if c, ok := b.(Clearer); ok {
		c.Clear()
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
	b.keep = nil
}

// Clear empties the buffer.
func (b *ListBuffer) Clear() {
	b.items.Init()
}

// Clear empties the buffer, dropping every bucket and the recycled-node
// freelist so no tuple stays pinned.
func (b *HashBuffer) Clear() {
	clear(b.buckets)
	b.free = nil
	b.size = 0
	b.scratch = nil
}

// Clear empties the buffer: the hash index, the arrival deque (pages go back
// to its freelist, then are dropped with the buffer), and the expiry ring.
func (b *IndexedFIFO) Clear() {
	b.hash.Clear()
	b.queue.Reset()
	b.ring.Reset()
	b.lastExp = 0
	b.unsorted = false
	b.scratch = nil
	b.keep = nil
}

// Clear empties the calendar: every partition, the overflow area, the entry
// pages, the key index, and the cursor.
func (b *PartitionedBuffer) Clear() {
	b.reset()
	b.lowBkt = 0
	b.scratch = nil
}
