package operator

import "repro/internal/tuple"

// Packed bitset masks for the selection kernel. Row i's verdict lives at bit
// i&63 of word i>>6. An interned-string comparison runs as a branchless
// compare loop over the id vector — each 64-row block packs its comparisons
// with shift-or, a shape gc compiles without per-row branches — and any other
// comparison through the three-way Compare. Survivors are gathered with
// trailing-zero iteration (tuple.ColBatch.AppendMaskedBits), so gather cost
// tracks popcount rather than row count.
//
// Invariant maintained throughout: bits at positions ≥ the row count are
// always zero, so popcount never sees garbage.

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

// setAllBits sets the first n bits of dst, a growBits mask for n rows, and
// keeps the tail of the last word clear.
func setAllBits(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		dst[len(dst)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// evalColConstBits is the column-vs-constant scan producing a packed mask.
// String (in)equality packs each 64-row block of interned ids branchlessly;
// everything else falls back to the three-way Compare, which is exactly
// ColConst.Eval's semantics.
func evalColConstBits(p ColConst, in *tuple.ColBatch, intern *tuple.Interner, dst []uint64) {
	n := in.Len()
	cv := in.Col(p.Col)
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
