package operator

import (
	"fmt"

	"repro/internal/tuple"
)

// Packed bitset masks for predicate evaluation. Row i's verdict lives at bit
// i&63 of word i>>6. The predicate leaves run as branchless compare loops over
// the typed column vectors — each 64-row block packs its comparisons with
// shift-or, a shape gc compiles without per-row branches — and the boolean
// combinators collapse to word-at-a-time AND/OR/NOT. Survivors are gathered
// with trailing-zero iteration (tuple.ColBatch.AppendMaskedBits), so gather
// cost tracks popcount rather than row count.
//
// Invariant maintained throughout: bits at positions ≥ the row count are
// always zero, so word-level combination and popcount never see garbage.

// growBits returns a zeroed bitset able to hold n rows, reusing m's storage
// when possible.
func growBits(m []uint64, n int) []uint64 {
	w := (n + 63) >> 6
	if cap(m) < w {
		return make([]uint64, w)
	}
	m = m[:w]
	for i := range m {
		m[i] = 0
	}
	return m
}

// b2u is the branchless bool→bit conversion; it compiles to SETcc, not a
// branch, which keeps the packing loops straight-line.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// colEvalBits fills dst (pre-sized by growBits for in.Len() rows) with p's
// verdicts. pool recycles the temporary bitsets nested conjunctions and
// disjunctions combine through.
func colEvalBits(p Predicate, in *tuple.ColBatch, intern *tuple.Interner, dst []uint64, pool *[][]uint64) error {
	n := in.Len()
	switch q := p.(type) {
	case ColConst:
		evalColConstBits(q, in, intern, dst)
		return nil
	case ColCol:
		evalColColBits(q, in, intern, dst)
		return nil
	case True:
		setAllBits(dst, n)
		return nil
	case Not:
		if err := colEvalBits(q.P, in, intern, dst, pool); err != nil {
			return err
		}
		notBits(dst, n)
		return nil
	case And:
		return combineBits(q, true, in, intern, dst, pool)
	case Or:
		return combineBits(q, false, in, intern, dst, pool)
	default:
		return fmt.Errorf("operator: predicate %v has no columnar evaluator", p)
	}
}

// combineBits fills dst with the conjunction (and) or the disjunction of
// subs, combining their bitsets word at a time; an empty conjunction is
// true, an empty disjunction false.
func combineBits(subs []Predicate, and bool, in *tuple.ColBatch, intern *tuple.Interner, dst []uint64, pool *[][]uint64) error {
	n := in.Len()
	if len(subs) == 0 {
		if and {
			setAllBits(dst, n)
		} else {
			clear(dst)
		}
		return nil
	}
	if err := colEvalBits(subs[0], in, intern, dst, pool); err != nil {
		return err
	}
	tmp := takeBits(pool, n)
	defer putBits(pool, tmp)
	for _, sub := range subs[1:] {
		if err := colEvalBits(sub, in, intern, tmp, pool); err != nil {
			return err
		}
		if and {
			for i := range dst {
				dst[i] &= tmp[i]
			}
		} else {
			for i := range dst {
				dst[i] |= tmp[i]
			}
		}
	}
	return nil
}

// setAllBits sets the first n bits and clears the tail of the last word.
func setAllBits(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	clearTailBits(dst, n)
}

// notBits flips the first n bits, keeping bits ≥ n zero.
func notBits(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^dst[i]
	}
	clearTailBits(dst, n)
}

// clearTailBits zeroes the bits at positions ≥ n in the last word.
func clearTailBits(dst []uint64, n int) {
	if r := n & 63; r != 0 && len(dst) > 0 {
		dst[len(dst)-1] &= (uint64(1) << uint(r)) - 1
	}
}

func takeBits(pool *[][]uint64, n int) []uint64 {
	if k := len(*pool); k > 0 {
		m := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		return growBits(m, n)
	}
	return growBits(nil, n)
}

func putBits(pool *[][]uint64, m []uint64) { *pool = append(*pool, m) }

// evalColConstBits is the column-vs-constant scan producing a packed mask.
// The typed paths pack each 64-row block branchlessly; the generic tail falls
// back to the three-way Compare, which is exactly ColConst.Eval's semantics.
func evalColConstBits(p ColConst, in *tuple.ColBatch, intern *tuple.Interner, dst []uint64) {
	n := in.Len()
	cv := in.Col(p.Col)
	if cv.Kind == tuple.KindInt && p.Val.Kind() == tuple.KindInt {
		packIntConst(dst, cv.Int, p.Val.I, p.Op)
		return
	}
	if cv.Kind == tuple.KindString && p.Val.Kind() == tuple.KindString && (p.Op == EQ || p.Op == NE) {
		id, ok := intern.Lookup(p.Val.S)
		if !ok {
			// Unknown constant: equality matches nothing, inequality everything.
			if p.Op == EQ {
				clear(dst)
			} else {
				setAllBits(dst, n)
			}
			return
		}
		packID(dst, cv.ID, id, p.Op == EQ)
		return
	}
	for i := 0; i < n; i++ {
		dst[i>>6] |= b2u(p.Op.eval(in.ValueAt(i, p.Col, intern).Compare(p.Val))) << uint(i&63)
	}
}

// packIntConst packs the column-vs-constant verdict for every element of xs
// into dst, one 64-row block per word. The comparison is written out per
// operator with the switch hoisted above the block loop: each inner loop is
// shift-or over a directly compiled compare (SETcc, no call, no per-row
// branch) — routing the compare through a func value instead costs an
// indirect call per element and erases the packing's advantage.
func packIntConst(dst []uint64, xs []int64, v int64, op CmpOp) {
	switch op {
	case EQ:
		for w := range dst {
			base, end, acc := packBlock(w, len(xs))
			for i := base; i < end; i++ {
				acc |= b2u(xs[i] == v) << uint(i&63)
			}
			dst[w] = acc
		}
	case NE:
		for w := range dst {
			base, end, acc := packBlock(w, len(xs))
			for i := base; i < end; i++ {
				acc |= b2u(xs[i] != v) << uint(i&63)
			}
			dst[w] = acc
		}
	case LT:
		for w := range dst {
			base, end, acc := packBlock(w, len(xs))
			for i := base; i < end; i++ {
				acc |= b2u(xs[i] < v) << uint(i&63)
			}
			dst[w] = acc
		}
	case LE:
		for w := range dst {
			base, end, acc := packBlock(w, len(xs))
			for i := base; i < end; i++ {
				acc |= b2u(xs[i] <= v) << uint(i&63)
			}
			dst[w] = acc
		}
	case GT:
		for w := range dst {
			base, end, acc := packBlock(w, len(xs))
			for i := base; i < end; i++ {
				acc |= b2u(xs[i] > v) << uint(i&63)
			}
			dst[w] = acc
		}
	case GE:
		for w := range dst {
			base, end, acc := packBlock(w, len(xs))
			for i := base; i < end; i++ {
				acc |= b2u(xs[i] >= v) << uint(i&63)
			}
			dst[w] = acc
		}
	default:
		clear(dst)
	}
}

// packBlock returns word w's row range over a vector of length n and a zero
// accumulator — the shared header of every packing block loop.
func packBlock(w, n int) (base, end int, acc uint64) {
	base = w << 6
	end = base + 64
	if end > n {
		end = n
	}
	return base, end, 0
}

// packID packs interned-id equality (or inequality) verdicts.
func packID(dst []uint64, ids []uint32, id uint32, eq bool) {
	for w := range dst {
		base, end, acc := packBlock(w, len(ids))
		for i := base; i < end; i++ {
			acc |= b2u((ids[i] == id) == eq) << uint(i&63)
		}
		dst[w] = acc
	}
}

// evalColColBits is the column-vs-column scan producing a packed mask, with
// branchless typed paths for same-kind comparisons.
func evalColColBits(p ColCol, in *tuple.ColBatch, intern *tuple.Interner, dst []uint64) {
	n := in.Len()
	l, r := in.Col(p.Left), in.Col(p.Right)
	if l.Kind == tuple.KindInt && r.Kind == tuple.KindInt {
		packIntCol(dst, l.Int, r.Int, p.Op)
		return
	}
	if l.Kind == tuple.KindString && r.Kind == tuple.KindString && (p.Op == EQ || p.Op == NE) {
		eq := p.Op == EQ
		ls, rs := l.ID, r.ID
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u((ls[i] == rs[i]) == eq) << uint(i&63)
			}
			dst[w] = acc
		}
		return
	}
	for i := 0; i < n; i++ {
		dst[i>>6] |= b2u(p.Op.eval(in.ValueAt(i, p.Left, intern).Compare(in.ValueAt(i, p.Right, intern)))) << uint(i&63)
	}
}

// packIntCol is packIntConst over two aligned vectors.
func packIntCol(dst []uint64, ls, rs []int64, op CmpOp) {
	switch op {
	case EQ:
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u(ls[i] == rs[i]) << uint(i&63)
			}
			dst[w] = acc
		}
	case NE:
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u(ls[i] != rs[i]) << uint(i&63)
			}
			dst[w] = acc
		}
	case LT:
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u(ls[i] < rs[i]) << uint(i&63)
			}
			dst[w] = acc
		}
	case LE:
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u(ls[i] <= rs[i]) << uint(i&63)
			}
			dst[w] = acc
		}
	case GT:
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u(ls[i] > rs[i]) << uint(i&63)
			}
			dst[w] = acc
		}
	case GE:
		for w := range dst {
			base, end, acc := packBlock(w, len(ls))
			for i := base; i < end; i++ {
				acc |= b2u(ls[i] >= rs[i]) << uint(i&63)
			}
			dst[w] = acc
		}
	default:
		clear(dst)
	}
}
