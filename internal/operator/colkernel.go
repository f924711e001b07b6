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
// A kernel exists only where a benchmark workload or a pinned checkpoint runs
// it: selection (predicate evaluation as a bitset mask scan) and the window
// equijoin for q1-csv-col, group-by for q6-groupby-col, and projection and
// Distinct, which byte-pinned parent checkpoints were written with (the
// stateful two live in colstateful.go). Every other operator — union, δ,
// negation, intersect, relation joins — keeps the row path; ColSupported
// lets the executor decide per plan whether a columnar pipeline is
// available at all.

// ColBatchProcessor is the optional columnar form of ProcessBatch: consume a
// run in columnar form, append emissions (positive and negative) to out in
// exactly the order the row-form ProcessBatch would produce them. Kernels may
// materialize row-form tuples internally where state structures require it,
// but the batch handed on stays column-major.
type ColBatchProcessor interface {
	ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error
}

// ColSupported reports whether op has a usable columnar kernel for its
// configuration. Plans containing any unsupported operator run entirely on
// the row batch path.
func ColSupported(op Operator) bool {
	switch o := op.(type) {
	case *Select:
		return colCompilable(o.pred)
	case *Project, *GroupBy, *Distinct:
		return true
	case *Join:
		// A residual predicate evaluates over the concatenated result row, so
		// it is mask-evaluable exactly when the mask compiler understands it.
		return o.residual == nil || colCompilable(o.residual)
	default:
		return false
	}
}

// colCompilable reports whether the predicate tree consists solely of shapes
// the mask evaluator (colmask.go) understands.
func colCompilable(p Predicate) bool {
	switch q := p.(type) {
	case ColConst, ColCol, True:
		return true
	case Not:
		return colCompilable(q.P)
	case And:
		return allCompilable(q)
	case Or:
		return allCompilable(q)
	default:
		return false
	}
}

func allCompilable(ps []Predicate) bool {
	for _, p := range ps {
		if !colCompilable(p) {
			return false
		}
	}
	return true
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

// ProcessCols evaluates the predicate over the column vectors into a packed
// bitset mask, then gathers the surviving rows (positive and negative alike,
// so a retraction passes exactly when the tuple it retracts passed).
func (s *Select) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 {
		return badSide("select", side)
	}
	s.colBits = growBits(s.colBits, in.Len())
	if err := colEvalBits(s.pred, in, intern, s.colBits, &s.colBitsTmp); err != nil {
		return err
	}
	out.AppendMaskedBits(in, s.colBits)
	return nil
}

// ProcessCols projects whole columns at once.
func (p *Project) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 {
		return badSide("project", side)
	}
	out.AppendProjection(in, p.cols)
	return nil
}

// ProcessCols is the columnar equijoin: per row it derives the canonical
// composite key straight from the column vectors (no row materialization on
// the probe), probes the opposite side's buffer, and appends concatenated
// results column-wise. Row form is materialized only where state requires it
// — insertion and removal — with the value slices carved from the join's
// arena instead of per-tuple allocations. With a residual predicate the run's
// results stage in a scratch batch and filter through a bitset mask, exactly
// mirroring the row path's per-result Eval (the filter is stateless, so
// deferring it to run grain preserves emission order).
func (j *Join) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 && side != 1 {
		return badSide("join", side)
	}
	if now > j.clock {
		j.clock = now
	}
	res := out
	if j.residual != nil {
		if j.colRes == nil {
			j.colRes = tuple.NewColBatch(j.schema)
		}
		j.colRes.Reset()
		res = j.colRes
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
			if !res.AppendJoin(in, i, side, m.Vals, now, exp, neg, intern) {
				j.cands = cands[:0]
				return fmt.Errorf("join: stored tuple %v does not fit the columnar result layout", m)
			}
		}
		j.cands = cands[:0]
	}
	if j.residual != nil {
		j.colResBits = growBits(j.colResBits, j.colRes.Len())
		if err := colEvalBits(j.residual, j.colRes, intern, j.colResBits, &j.colResTmp); err != nil {
			return err
		}
		out.AppendMaskedBits(j.colRes, j.colResBits)
	}
	return nil
}
