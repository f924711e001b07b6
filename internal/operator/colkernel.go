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
// Kernels cover the hot relational core — selection (predicate evaluation as
// a bitset mask scan), projection, merge union, the window equijoin — and the
// stateful tail: group-by, duplicate elimination (both Distinct and the δ
// operator), and negation (colstateful.go). Operators without a kernel
// (intersect, relation joins) keep the row path; ColSupported lets the
// executor decide per plan whether a columnar pipeline is available at all.

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
	case *Project, *Union, *GroupBy, *Distinct, *DistinctDelta, *Negate:
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
// the mask evaluator understands.
func colCompilable(p Predicate) bool {
	switch q := p.(type) {
	case ColConst, ColCol, True:
		return true
	case Not:
		return colCompilable(q.P)
	case And:
		for _, s := range q {
			if !colCompilable(s) {
				return false
			}
		}
		return true
	case Or:
		for _, s := range q {
			if !colCompilable(s) {
				return false
			}
		}
		return true
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

// growMask returns a []bool of length n, reusing m's storage when possible.
func growMask(m []bool, n int) []bool {
	if cap(m) < n {
		return make([]bool, n)
	}
	return m[:n]
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

// evalBoolMask is the retired per-row []bool evaluation path, kept callable
// so BenchmarkMaskEval can compare it against the packed bitset path on the
// same predicates.
func (s *Select) evalBoolMask(in *tuple.ColBatch, intern *tuple.Interner) ([]bool, error) {
	s.colMask = growMask(s.colMask, in.Len())
	if err := colEval(s.pred, in, intern, s.colMask, &s.colTmp); err != nil {
		return nil, err
	}
	return s.colMask, nil
}

// colEval fills dst[i] with p's verdict on row i. pool recycles the temporary
// masks nested conjunctions and disjunctions combine through.
func colEval(p Predicate, in *tuple.ColBatch, intern *tuple.Interner, dst []bool, pool *[][]bool) error {
	switch q := p.(type) {
	case ColConst:
		evalColConst(q, in, intern, dst)
		return nil
	case ColCol:
		evalColCol(q, in, intern, dst)
		return nil
	case True:
		for i := range dst {
			dst[i] = true
		}
		return nil
	case Not:
		if err := colEval(q.P, in, intern, dst, pool); err != nil {
			return err
		}
		for i := range dst {
			dst[i] = !dst[i]
		}
		return nil
	case And:
		if len(q) == 0 {
			for i := range dst {
				dst[i] = true
			}
			return nil
		}
		if err := colEval(q[0], in, intern, dst, pool); err != nil {
			return err
		}
		tmp := takeMask(pool, len(dst))
		defer putMask(pool, tmp)
		for _, sub := range q[1:] {
			if err := colEval(sub, in, intern, tmp, pool); err != nil {
				return err
			}
			for i := range dst {
				dst[i] = dst[i] && tmp[i]
			}
		}
		return nil
	case Or:
		if len(q) == 0 {
			for i := range dst {
				dst[i] = false
			}
			return nil
		}
		if err := colEval(q[0], in, intern, dst, pool); err != nil {
			return err
		}
		tmp := takeMask(pool, len(dst))
		defer putMask(pool, tmp)
		for _, sub := range q[1:] {
			if err := colEval(sub, in, intern, tmp, pool); err != nil {
				return err
			}
			for i := range dst {
				dst[i] = dst[i] || tmp[i]
			}
		}
		return nil
	default:
		return fmt.Errorf("operator: predicate %v has no columnar evaluator", p)
	}
}

func takeMask(pool *[][]bool, n int) []bool {
	if k := len(*pool); k > 0 {
		m := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		return growMask(m, n)
	}
	return make([]bool, n)
}

func putMask(pool *[][]bool, m []bool) { *pool = append(*pool, m) }

// evalColConst is the column-vs-constant scan. Same-kind integer comparisons
// and string equality run as typed loops — string equality compares interned
// ids, resolving the constant through the symbol table once per batch (a
// constant the engine has never seen matches no stored string, or every one
// under inequality). Everything else takes the generic three-way Compare,
// which is exactly ColConst.Eval's semantics (its row fast paths agree with
// Compare by construction).
func evalColConst(p ColConst, in *tuple.ColBatch, intern *tuple.Interner, dst []bool) {
	cv := in.Col(p.Col)
	if cv.Kind == tuple.KindInt && p.Val.Kind == tuple.KindInt {
		v := p.Val.I
		switch p.Op {
		case EQ:
			for i, x := range cv.Int {
				dst[i] = x == v
			}
		case NE:
			for i, x := range cv.Int {
				dst[i] = x != v
			}
		case LT:
			for i, x := range cv.Int {
				dst[i] = x < v
			}
		case LE:
			for i, x := range cv.Int {
				dst[i] = x <= v
			}
		case GT:
			for i, x := range cv.Int {
				dst[i] = x > v
			}
		case GE:
			for i, x := range cv.Int {
				dst[i] = x >= v
			}
		default:
			for i := range cv.Int {
				dst[i] = false
			}
		}
		return
	}
	if cv.Kind == tuple.KindString && p.Val.Kind == tuple.KindString && (p.Op == EQ || p.Op == NE) {
		eq := p.Op == EQ
		id, ok := intern.Lookup(p.Val.S)
		if !ok {
			for i := range cv.ID {
				dst[i] = !eq
			}
			return
		}
		for i, x := range cv.ID {
			dst[i] = (x == id) == eq
		}
		return
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		dst[i] = p.Op.eval(in.ValueAt(i, p.Col, intern).Compare(p.Val))
	}
}

// evalColCol is the column-vs-column scan, with a typed loop for the
// int-int case.
func evalColCol(p ColCol, in *tuple.ColBatch, intern *tuple.Interner, dst []bool) {
	l, r := in.Col(p.Left), in.Col(p.Right)
	if l.Kind == tuple.KindInt && r.Kind == tuple.KindInt {
		for i := range l.Int {
			c := 0
			switch {
			case l.Int[i] < r.Int[i]:
				c = -1
			case l.Int[i] > r.Int[i]:
				c = 1
			}
			dst[i] = p.Op.eval(c)
		}
		return
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		dst[i] = p.Op.eval(in.ValueAt(i, p.Left, intern).Compare(in.ValueAt(i, p.Right, intern)))
	}
}

// ProcessCols projects whole columns at once.
func (p *Project) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 {
		return badSide("project", side)
	}
	out.AppendProjection(in, p.cols)
	return nil
}

// ProcessCols forwards the run, asserting the merge's timestamp order on
// positives exactly as the row path does.
func (u *Union) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 && side != 1 {
		return badSide("union", side)
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		if in.NegAt(i) {
			continue
		}
		ts := in.TSAt(i)
		if ts < u.lastTS {
			return fmt.Errorf("union: non-blocking merge requires timestamp order (got %d after %d)", ts, u.lastTS)
		}
		u.lastTS = ts
	}
	out.AppendMasked(in, nil)
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
