package operator

import (
	"fmt"

	"repro/internal/tuple"
)

// Columnar operator kernels. A kernel consumes a run of same-schema tuples in
// columnar form (tuple.ColBatch) and appends its emissions to an output
// batch, producing exactly what the row-form ProcessBatch would — columnar
// execution is a layout/dispatch optimization, never a semantic change.
//
// Three kernels exist, one per operator shape a benchmark workload runs in
// columnar form: a selection comparing one column with a constant (a bitset
// mask scan, colmask.go) and the window equijoin without a residual for
// q1-csv-col, and the group-by (colstateful.go) for q6-groupby-col. Every
// other operator or shape keeps the row path; ColSupported lets the executor
// decide per plan whether a columnar pipeline is available at all.

// ColBatchProcessor is the optional columnar form of ProcessBatch: consume a
// run in columnar form, append emissions (positive and negative) to out in
// exactly the order the row-form ProcessBatch would produce them. Kernels may
// materialize row-form tuples internally where state structures require it,
// but the batch handed on stays column-major.
type ColBatchProcessor interface {
	ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error
}

// ColSupported reports whether op has a usable columnar kernel for its
// configuration: a Select over one ColConst, a Join without a residual, or a
// GroupBy. Plans containing any other operator run entirely on the row batch
// path.
func ColSupported(op Operator) bool {
	switch o := op.(type) {
	case *Select:
		_, ok := o.pred.(ColConst)
		return ok
	case *GroupBy:
		return true
	case *Join:
		return o.residual == nil
	default:
		return false
	}
}

// ProcessColBatch drives op's columnar kernel over in, appending emissions to
// out. The caller must have established ColSupported(op); an unsupported
// operator is an execution error, not a silent fallback — fallback decisions
// are made per plan, before any batch flows.
func ProcessColBatch(op Operator, side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	p, ok := op.(ColBatchProcessor)
	if !ok {
		return fmt.Errorf("operator: no columnar kernel for %T", op)
	}
	return p.ProcessCols(side, in, now, out, intern)
}

// ProcessCols compares the constant's column with the constant into a packed
// bitset mask, then gathers the surviving rows (positive and negative alike,
// so a retraction passes exactly when the tuple it retracts passed).
func (s *Select) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 {
		return badSide("select", side)
	}
	p, ok := s.pred.(ColConst)
	if !ok {
		return fmt.Errorf("operator: predicate %v has no columnar evaluator", s.pred)
	}
	s.colBits = growBits(s.colBits, in.Len())
	evalColConstBits(p, in, intern, s.colBits)
	out.AppendMaskedBits(in, s.colBits)
	return nil
}

// ProcessCols is the columnar equijoin: per row it derives the canonical
// composite key straight from the column vectors (no row materialization on
// the probe), probes the opposite side's buffer, and appends concatenated
// results column-wise. Row form is materialized only where state requires it
// — insertion and removal — with the value slices carved from the join's
// arena instead of per-tuple allocations. A join with a residual predicate
// has no kernel.
func (j *Join) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 && side != 1 {
		return badSide("join", side)
	}
	if j.residual != nil {
		return fmt.Errorf("join: residual %v has no columnar evaluator", j.residual)
	}
	if now > j.clock {
		j.clock = now
	}
	other := 1 - side
	probeAt := now
	if !j.timeExpiry {
		probeAt = noExpiry
	}
	// When both buffers take caller-computed digests, each row's join key is
	// hashed exactly once — shared by the own-side insert and the opposite
	// probe (equijoin keys are equal by construction, so the digests agree).
	hIns, hPrb := j.hashed[side], j.hashed[other]
	useHashed := hIns != nil && hPrb != nil
	n := in.Len()
	for i := 0; i < n; i++ {
		k := in.Key(i, j.keyCols[side], intern)
		var h uint64
		if hIns != nil {
			h = k.Hash64()
		}
		neg := in.NegAt(i)
		if neg {
			// The materialized row is only a removal pattern — Remove compares
			// against it and retains nothing — so its slice goes straight back
			// to the arena.
			pat := in.RowTuple(i, &j.colArena, intern)
			removed := j.state[side].Remove(pat)
			j.colArena.Recycle(pat.Vals)
			if !removed {
				// Already lazily expired; nothing to retract beyond what exp
				// timestamps retire at the consumers.
				continue
			}
		} else {
			t := in.RowTuple(i, &j.colArena, intern)
			if hIns != nil {
				hIns.InsertHashed(h, t)
			} else {
				j.state[side].Insert(t)
			}
		}
		var cands []tuple.Tuple
		if useHashed {
			cands = hPrb.ProbeAppendHashed(h, k, probeAt, j.cands[:0])
		} else {
			cands = probeAppend(j.state[other], j.keyCols[other], k, probeAt, j.cands[:0])
		}
		inExp := in.ExpAt(i)
		for _, m := range cands {
			exp := inExp
			if m.Exp < exp {
				exp = m.Exp
			}
			if !out.AppendJoin(in, i, side, m.Vals, now, exp, neg, intern) {
				j.cands = cands[:0]
				return fmt.Errorf("join: stored tuple %v does not fit the columnar result layout", m)
			}
		}
		j.cands = cands[:0]
	}
	return nil
}
