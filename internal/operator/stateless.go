package operator

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/tuple"
)

// Select drops tuples that fail a predicate. It is stateless and processes
// negative tuples with the same predicate, so a retraction passes exactly
// when the tuple it retracts passed (Section 2.1).
type Select struct {
	pred   Predicate
	schema *tuple.Schema
	// colBits and colBitsTmp back the columnar kernel's packed bitset masks
	// across batches (see colmask.go), so steady-state mask evaluation
	// allocates nothing.
	colBits    []uint64
	colBitsTmp [][]uint64
}

// NewSelect builds a selection operator.
func NewSelect(schema *tuple.Schema, pred Predicate) *Select {
	return &Select{pred: pred, schema: schema}
}

// Class implements Operator.
func (s *Select) Class() core.OpClass { return core.OpSelect }

// Schema implements Operator.
func (s *Select) Schema() *tuple.Schema { return s.schema }

// Predicate returns the selection condition.
func (s *Select) Predicate() Predicate { return s.pred }

// ProcessBatch implements Operator: one predicate evaluation per tuple.
func (s *Select) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("select", side)
	}
	for _, t := range in {
		if s.pred.Eval(t) {
			out.Append(t)
		}
	}
	return nil
}

// Advance implements Operator (stateless: nothing expires).
func (s *Select) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator.
func (s *Select) StateSize() int { return 0 }

// Touched implements Operator.
func (s *Select) Touched() int64 { return 0 }

// projectBlockRows is how many rows one value block holds. Rows escape
// downstream, and a stale tuple left in a truncated scratch slice or a pooled
// Emit keeps its whole block alive, so blocks stay small. A group-by keeps
// each group's last row and a duplicate eliminator each value's
// representative, so there the bound is one block, 16 rows, per live group
// or value.
const projectBlockRows = 16

// valueBlock is the unused tail of the current block that emitted or kept
// rows carve their value slices from (Project's, Join's and GroupBy's
// outputs, the values δ and Distinct keep). A carved slice has len == cap and
// is never handed out again.
type valueBlock []tuple.Value

// reserve makes room for rows rows of w values: a fresh block of at least
// projectBlockRows rows when the current one cannot hold them, so a run
// costs at most one allocation.
func (b *valueBlock) reserve(rows, w int) {
	if need := rows * w; need > len(*b) {
		*b = make([]tuple.Value, max(need, projectBlockRows*w))
	}
}

// carve cuts one row of w values from the block, starting a fresh block when
// the current one cannot hold it.
func (b *valueBlock) carve(w int) []tuple.Value {
	if w > len(*b) {
		*b = make([]tuple.Value, projectBlockRows*w)
	}
	vals := (*b)[:w:w]
	*b = (*b)[w:]
	return vals
}

// keep returns vals in storage its caller may keep: like itself when the two
// hold the same bits, else a copy carved from the block. A duplicate
// eliminator passes a kept duplicate's representative as like, so duplicates
// share one copy, and one that differs bit for bit (1 and 1.0, +0 and −0, two
// NaN payloads) keeps its own.
func (b *valueBlock) keep(vals, like []tuple.Value) []tuple.Value {
	if like != nil && slices.EqualFunc(vals, like, tuple.Value.Identical) {
		return like
	}
	kept := b.carve(len(vals))
	copy(kept, vals)
	return kept
}

// Project keeps the columns at the configured positions, preserving
// duplicates (bag semantics). Negative tuples are projected identically so
// their values keep matching the positive results they retract.
//
// By default projected rows carve their values from a per-operator block of
// projectBlockRows rows, so a run of one arrival costs 1/16 of an allocation
// and a longer run than a block holds takes one array of its own. A
// borrowing projection (SetBorrow) of one contiguous ascending column range
// instead emits a capped subslice of each input row's values and allocates
// nothing; the executor turns it on only where every consumer is a duplicate
// eliminator, δ or Distinct, which copies what it keeps, so no borrowed slice
// outlives the run.
type Project struct {
	cols   []int
	schema *tuple.Schema
	// block is the unused tail of the current value block.
	block valueBlock
	// contiguous reports whether cols is cols[0], cols[0]+1, …: only then
	// can the projection borrow (SetBorrow).
	contiguous, borrow bool
}

// NewProject builds a projection onto the given column positions of in.
func NewProject(in *tuple.Schema, cols []int) (*Project, error) {
	out, err := in.Project(cols)
	if err != nil {
		return nil, err
	}
	p := &Project{cols: append([]int(nil), cols...), schema: out, contiguous: len(cols) > 0}
	for i, c := range cols {
		if c != cols[0]+i {
			p.contiguous = false
		}
	}
	return p, nil
}

// Class implements Operator.
func (p *Project) Class() core.OpClass { return core.OpProject }

// Schema implements Operator.
func (p *Project) Schema() *tuple.Schema { return p.schema }

// Cols returns the projected column positions.
func (p *Project) Cols() []int { return p.cols }

// SetBorrow switches the projection between copying its rows' values and
// borrowing them from its input, and reports whether it borrows: only a
// projection of one contiguous ascending column range can. A borrowed slice
// aliases the input row's array, so the caller turns borrowing on only
// where every consumer copies what it keeps; it may switch at any time.
func (p *Project) SetBorrow(on bool) bool {
	p.borrow = on && p.contiguous
	return p.borrow
}

// ProcessBatch implements Operator: a borrowing projection emits a subslice
// of each row's values; otherwise the run's value slices are carved from the
// current block, or from a fresh one when the run does not fit, so a run
// costs at most one allocation.
func (p *Project) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("project", side)
	}
	if p.borrow {
		lo, hi := p.cols[0], p.cols[0]+len(p.cols)
		for _, t := range in {
			t.Vals = t.Vals[lo:hi:hi]
			out.Append(t)
		}
		return nil
	}
	w := len(p.cols)
	p.block.reserve(len(in), w)
	for _, t := range in {
		vals := p.block.carve(w)
		for i, c := range p.cols {
			vals[i] = t.Vals[c]
		}
		o := t
		o.Vals = vals
		out.Append(o)
	}
	return nil
}

// Advance implements Operator.
func (p *Project) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator.
func (p *Project) StateSize() int { return 0 }

// Touched implements Operator.
func (p *Project) Touched() int64 { return 0 }

// Union is the non-blocking merge union of two inputs with layout-equal
// schemas (Section 2.1). The executor delivers tuples in global timestamp
// order, so the merge reduces to forwarding; the operator asserts the order
// so a mis-scheduled plan fails loudly rather than silently reordering.
type Union struct {
	schema *tuple.Schema
	lastTS int64
}

// NewUnion builds a merge union; the inputs must be layout-equal.
func NewUnion(left, right *tuple.Schema) (*Union, error) {
	if !left.EqualLayout(right) {
		return nil, fmt.Errorf("union: schemas %v and %v are not layout-equal", left, right)
	}
	return &Union{schema: left, lastTS: -1}, nil
}

// Class implements Operator.
func (u *Union) Class() core.OpClass { return core.OpUnion }

// Schema implements Operator.
func (u *Union) Schema() *tuple.Schema { return u.schema }

// ProcessBatch implements Operator.
func (u *Union) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 && side != 1 {
		return badSide("union", side)
	}
	for _, t := range in {
		if !t.Neg {
			if t.TS < u.lastTS {
				return fmt.Errorf("union: non-blocking merge requires timestamp order (got %d after %d)", t.TS, u.lastTS)
			}
			u.lastTS = t.TS
		}
		out.Append(t)
	}
	return nil
}

// Advance implements Operator.
func (u *Union) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator.
func (u *Union) StateSize() int { return 0 }

// Touched implements Operator.
func (u *Union) Touched() int64 { return 0 }
