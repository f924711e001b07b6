package statebuf

// RefCount tracks how many registered queries reference a shared resource —
// a canonicalized plan node and the state buffers behind it, or a shared
// window source. The multi-query executor acquires one reference per
// registered query that maps onto the node and releases it on Unregister;
// when the count returns to zero the node is retired from the dataflow and
// its buffers are left to the collector.
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
