package operator

import "repro/internal/tuple"

// Emit is the reusable, append-only output buffer of Operator.ProcessBatch:
// operators append their emissions and the executor forwards the accumulated
// run to the parent, then resets the buffer for the next run (it keeps one
// per depth of its recursion up the plan).
//
// Ownership and aliasing rules (DESIGN.md §3.1, "Emit ownership"):
//
//   - The executor owns the Emit. Operators only Append during one
//     ProcessBatch call and must not retain the buffer or the slice returned
//     by Tuples across calls.
//   - Tuples()' backing array is reused once the buffer is Reset; callers
//     that need emissions beyond the current batch must copy
//     the tuples out (the Tuple structs themselves are values — storing a
//     copied Tuple is safe, retaining the slice is not).
//   - Vals slices inside appended tuples are NOT copied or recycled:
//     emissions share value slices with the inputs and state they derive from.
//     A borrowing Project emits views of its input rows' arrays; only a
//     duplicate eliminator, δ or Distinct, which copies what it keeps, may
//     consume them (Project.SetBorrow).
type Emit struct {
	ts []tuple.Tuple
}

// Append adds one emission.
func (e *Emit) Append(t tuple.Tuple) { e.ts = append(e.ts, t) }

// AppendAll adds a run of emissions.
func (e *Emit) AppendAll(ts []tuple.Tuple) { e.ts = append(e.ts, ts...) }

// Tuples returns the accumulated emissions in append order. The slice is
// only valid until the buffer is Reset.
func (e *Emit) Tuples() []tuple.Tuple { return e.ts }

// Len returns the number of accumulated emissions.
func (e *Emit) Len() int { return len(e.ts) }

// Reset empties the buffer, keeping its capacity.
func (e *Emit) Reset() { e.ts = e.ts[:0] }
