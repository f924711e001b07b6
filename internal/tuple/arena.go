package tuple

// arenaSlab is the number of Values carved per slab. At 24 bytes per Value a
// slab is 24 KiB: large enough that steady-state row materialization
// amortizes to well under one allocation per tuple, small enough that a few
// straggling live rows do not pin much dead memory (window state expires in
// FIFO order, so slabs drain roughly front to back).
const arenaSlab = 1024

// ValueArena carves []Value rows out of shared slabs. The columnar execution
// path materializes row-form tuples at its boundaries — operator state
// insertion, the result view, retraction observers — and a per-row
// make([]Value, n) there would reintroduce exactly the per-tuple allocation
// columnar layout removes. Arena rows are never freed individually; the slab
// is garbage once every row carved from it is unreachable.
//
// Rows from Alloc have len == cap == n, so an append on a materialized tuple
// copies out instead of clobbering a neighbor.
type ValueArena struct {
	slab []Value
	// free holds recycled rows handed back through Recycle. Steady-state
	// window churn materializes and expires rows at the same rate, so with
	// recycling the arena stops carving new slabs entirely — the working set
	// is the window's row count, reused in place.
	free [][]Value
}

// arenaFreeRows bounds the recycled-row list; beyond it, returned rows drop
// to the GC (a one-off expiry burst should not pin its peak forever).
const arenaFreeRows = 1024

// Alloc returns a []Value of length n — a recycled row when one of exactly
// that width is on top of the free list, else a row carved from the current
// slab (starting a fresh slab when the remainder is too small). Recycled rows
// hold stale values; every caller overwrites all n entries. Oversized
// requests (beyond a quarter slab) get a dedicated allocation so one wide row
// cannot burn most of a slab.
func (a *ValueArena) Alloc(n int) []Value {
	if n == 0 {
		return nil
	}
	if k := len(a.free); k > 0 && len(a.free[k-1]) == n {
		out := a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
		return out
	}
	if n > len(a.slab) {
		if n > arenaSlab/4 {
			return make([]Value, n)
		}
		a.slab = make([]Value, arenaSlab)
	}
	out := a.slab[:n:n]
	a.slab = a.slab[n:]
	return out
}

// Recycle hands a row back for reuse by a later Alloc of the same width. The
// caller must own the row exclusively — nothing may read or write it after
// this call. Recycling a row that other code still references (for example a
// caller-provided value slice that was stored by reference) corrupts that
// holder's data, so owners of mixed-provenance rows must not recycle at all.
func (a *ValueArena) Recycle(vals []Value) {
	if len(vals) == 0 || len(a.free) >= arenaFreeRows {
		return
	}
	a.free = append(a.free, vals[:len(vals):len(vals)])
}
