// Package operator implements the physical continuous-query operators of
// Sections 2.1, 4.1 and 5.3.1 of Golab & Özsu (SIGMOD 2005).
//
// Every operator processes three kinds of events:
//
//   - arrival of a positive tuple on one of its inputs (ProcessBatch, an
//     element with Neg == false): update state, emit new results;
//   - arrival of a negative tuple (ProcessBatch, an element with Neg == true):
//     remove the corresponding tuple from state and emit the retractions of
//     results it participated in — this path carries both the negative-tuple
//     execution strategy (Section 2.3.1) and retractions originating at
//     negation / retroactive-relation operators;
//   - passage of time (Advance): expire state whose exp timestamps are due.
//     Lazily-maintained operators (join inputs) merely discard; eager
//     operators (duplicate elimination, group-by, negation, intersection)
//     may emit new results in response (Section 2.3).
//
// Operators never expire state beyond their local clock (Section 2.3.2),
// which the executor advances explicitly.
package operator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Operator is the contract between the executor and every physical operator.
type Operator interface {
	// Class identifies the logical operator for pattern propagation.
	Class() core.OpClass
	// Schema is the output schema.
	Schema() *tuple.Schema
	// ProcessBatch handles a run of input tuples (positive or negative, in
	// any mix) arriving in order on input side (0 for unary operators), with
	// the local clock at now, and appends what they emit on the output stream
	// to out, in order. Every element is one event handled to completion
	// before the next, so where a run is cut never shows: ProcessBatch(run)
	// emits the concatenation of ProcessBatch over any partition of run. A
	// single arrival is a run of one. The operator retains neither in nor out.
	ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error
	// Advance moves the local clock to now, expiring due state per the
	// operator's maintenance policy, and returns any output this produces.
	// The slice may be the operator's own scratch: it is valid until the next
	// call on the operator.
	Advance(now int64) ([]tuple.Tuple, error)
	// StateSize returns the number of tuples currently stored.
	StateSize() int
	// Touched returns cumulative tuple visits across the operator's state
	// structures (cost accounting for the experiments).
	Touched() int64
}

// noExpiry, passed as the probe time, makes every stored tuple probe-visible
// regardless of its exp timestamp — the negative-tuple strategy's view of
// state, where only explicit retractions retire tuples.
const noExpiry = int64(-1) << 62

// probeAppend collects the live (non-expired) tuples in buf whose key over
// keyCols equals k into dst, using the buffer's keyed probe when it has one
// and a filtered scan otherwise: the DIRECT list's own ScanAppend, or Scan
// with a visitor for any other buffer. Hot operators keep a scratch slice, so
// steady-state probing allocates nothing.
func probeAppend(buf statebuf.Buffer, keyCols []int, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	switch b := buf.(type) {
	case statebuf.ProbeAppender:
		return b.ProbeAppend(k, now, dst)
	case *statebuf.ListBuffer:
		return b.ScanAppend(keyCols, k, now, dst)
	}
	return scanAppend(buf, keyCols, k, now, dst)
}

// scanAppend is a function of its own so that the visitor's capture of dst
// (a heap cell) is paid only when a buffer really has to be scanned.
func scanAppend(buf statebuf.Buffer, keyCols []int, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	buf.Scan(func(t tuple.Tuple) bool {
		if !t.Expired(now) && t.KeyMatches(keyCols, k) {
			dst = append(dst, t)
		}
		return true
	})
	return dst
}

// allColumns lists the positions 0..n-1: the key of a whole row, or of the
// leading n columns.
func allColumns(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// badSide builds the error for an out-of-range input side.
func badSide(op string, side int) error {
	return fmt.Errorf("%s: no input side %d", op, side)
}
