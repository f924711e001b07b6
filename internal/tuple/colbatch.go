package tuple

import "math/bits"

// Columnar batch layout. A ColBatch holds one run of same-schema tuples as
// per-column typed vectors — []int64 for int columns, []float64 for float
// columns, []uint32 interned-string ids for string columns — plus TS/Exp/Neg
// control columns. Operator kernels that understand the layout scan whole
// columns of machine words instead of walking []Value rows, and conversion
// back to row form happens only at the boundaries that need it (state
// insertion, the result view).
//
// A batch is bound to one schema and one Interner: every string id stored in
// its vectors is meaningful only against the interner that produced it, so
// batches never travel between engines. Conversion is strict about kinds —
// a value whose Kind differs from its column's declared Kind (including
// NULL) cannot be laid out in a typed vector, and the conversion reports
// failure so the caller can fall back to the row batch path. Columnar
// batches therefore never contain NULLs and need no validity bitmaps.

// ColVec is one column's typed vector. Exactly one of the payload slices is
// live, selected by Kind.
type ColVec struct {
	Kind  Kind
	Int   []int64
	Float []float64
	ID    []uint32 // interned string ids
}

// value materializes the i-th entry as a Value.
func (v *ColVec) value(i int, in *Interner) Value {
	switch v.Kind {
	case KindInt:
		return Value{Kind: KindInt, I: v.Int[i]}
	case KindFloat:
		return Float(v.Float[i])
	default:
		return Value{Kind: KindString, S: in.Str(v.ID[i])}
	}
}

// append lays out val, whose Kind must already equal v.Kind.
func (v *ColVec) append(val Value, in *Interner) {
	switch v.Kind {
	case KindInt:
		v.Int = append(v.Int, val.I)
	case KindFloat:
		v.Float = append(v.Float, val.F())
	default:
		v.ID = append(v.ID, in.Intern(val.S))
	}
}

// appendFrom copies entry i of src (same Kind, same interner) onto the tail.
func (v *ColVec) appendFrom(src *ColVec, i int) {
	switch v.Kind {
	case KindInt:
		v.Int = append(v.Int, src.Int[i])
	case KindFloat:
		v.Float = append(v.Float, src.Float[i])
	default:
		v.ID = append(v.ID, src.ID[i])
	}
}

// reset empties the vector, keeping capacity. Only the live payload slice
// needs truncating — the other two are never written for this Kind — and
// batches reset once per kernel invocation, so the saved header writes count.
func (v *ColVec) reset() {
	switch v.Kind {
	case KindInt:
		v.Int = v.Int[:0]
	case KindFloat:
		v.Float = v.Float[:0]
	default:
		v.ID = v.ID[:0]
	}
}

// ColBatch is a run of tuples in columnar form. The zero value is not usable;
// build with NewColBatch.
type ColBatch struct {
	schema *Schema
	kinds  []Kind
	n      int
	// negs counts negative rows, maintained by every append so per-batch
	// polarity accounting reads a field instead of scanning the Neg column.
	negs int
	ts   []int64
	exp  []int64
	neg  []bool
	cols []ColVec
	// maskIdx backs AppendMasked's survivor index gather.
	maskIdx []int32
	// keyVals/keyIdx back the wide-key slow path of Key.
	keyVals []Value
	keyIdx  []int
}

// NewColBatch returns an empty batch laid out for schema. Every column kind
// must be a concrete scalar (int, float, or string); a schema with a NULL
// column kind yields a batch whose conversions always fail, which callers
// should rule out up front with ColumnarKinds.
func NewColBatch(schema *Schema) *ColBatch {
	cb := &ColBatch{schema: schema, kinds: make([]Kind, schema.Len()), cols: make([]ColVec, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		cb.kinds[i] = schema.Col(i).Kind
		cb.cols[i].Kind = cb.kinds[i]
	}
	return cb
}

// ColumnarKinds reports whether every column of schema has a concrete scalar
// kind representable as a typed vector.
func ColumnarKinds(schema *Schema) bool {
	for i := 0; i < schema.Len(); i++ {
		switch schema.Col(i).Kind {
		case KindInt, KindFloat, KindString:
		default:
			return false
		}
	}
	return true
}

// Schema returns the batch's schema.
func (cb *ColBatch) Schema() *Schema { return cb.schema }

// Len returns the number of rows.
func (cb *ColBatch) Len() int { return cb.n }

// Width returns the number of columns.
func (cb *ColBatch) Width() int { return len(cb.kinds) }

// Col returns column c's vector.
func (cb *ColBatch) Col(c int) *ColVec { return &cb.cols[c] }

// TSAt returns row i's generation timestamp.
func (cb *ColBatch) TSAt(i int) int64 { return cb.ts[i] }

// ExpAt returns row i's expiration timestamp.
func (cb *ColBatch) ExpAt(i int) int64 { return cb.exp[i] }

// NegAt reports whether row i is a negative (retraction) tuple.
func (cb *ColBatch) NegAt(i int) bool { return cb.neg[i] }

// NegCount returns the number of negative rows. It is tracked incrementally
// by every append, so polarity accounting over a batch is O(1).
func (cb *ColBatch) NegCount() int { return cb.negs }

// ValueAt materializes the value at (row, col).
func (cb *ColBatch) ValueAt(row, col int, in *Interner) Value {
	return cb.cols[col].value(row, in)
}

// Reset empties the batch, keeping vector capacity.
func (cb *ColBatch) Reset() {
	cb.n = 0
	cb.negs = 0
	cb.ts = cb.ts[:0]
	cb.exp = cb.exp[:0]
	cb.neg = cb.neg[:0]
	for i := range cb.cols {
		cb.cols[i].reset()
	}
}

// AppendVals appends one row. It reports false — leaving the batch unchanged
// — when the value list's width or kinds disagree with the schema; the
// caller then routes the whole run through the row batch path.
func (cb *ColBatch) AppendVals(ts, exp int64, neg bool, vals []Value, in *Interner) bool {
	if len(vals) != len(cb.kinds) {
		return false
	}
	for i := range vals {
		if vals[i].Kind != cb.kinds[i] {
			return false
		}
	}
	for i := range vals {
		cb.cols[i].append(vals[i], in)
	}
	cb.ts = append(cb.ts, ts)
	cb.exp = append(cb.exp, exp)
	cb.neg = append(cb.neg, neg)
	if neg {
		cb.negs++
	}
	cb.n++
	return true
}

// AppendRun lays out a whole ingest run — positive rows sharing one
// generation timestamp and one expiration — column-major. The batch MUST be
// empty (the run replaces any prior contents). Kinds are checked as each
// column fills; a mismatch anywhere in the run resets the batch and reports
// false, so the caller reroutes the run through the row path whole
// (all-or-nothing, like FromRows). Filling vector by vector turns the
// per-value Kind dispatch of AppendVals into one switch per column, and
// sizing each vector up front replaces per-element append capacity checks
// with plain index stores.
func (cb *ColBatch) AppendRun(ts, exp int64, rows [][]Value, in *Interner) bool {
	w := len(cb.kinds)
	n := len(rows)
	for _, r := range rows {
		if len(r) != w {
			cb.Reset()
			return false
		}
	}
	for c := 0; c < w; c++ {
		v := &cb.cols[c]
		k := cb.kinds[c]
		// The run lands on an empty batch, so each vector is sized up front
		// and filled by index — no per-element capacity check.
		switch v.Kind {
		case KindInt:
			if cap(v.Int) < n {
				v.Int = make([]int64, n)
			} else {
				v.Int = v.Int[:n]
			}
			for ri, r := range rows {
				if r[c].Kind != k {
					cb.Reset()
					return false
				}
				v.Int[ri] = r[c].I
			}
		case KindFloat:
			if cap(v.Float) < n {
				v.Float = make([]float64, n)
			} else {
				v.Float = v.Float[:n]
			}
			for ri, r := range rows {
				if r[c].Kind != k {
					cb.Reset()
					return false
				}
				v.Float[ri] = r[c].F()
			}
		default:
			if cap(v.ID) < n {
				v.ID = make([]uint32, n)
			} else {
				v.ID = v.ID[:n]
			}
			for ri, r := range rows {
				if r[c].Kind != k {
					cb.Reset()
					return false
				}
				v.ID[ri] = in.Intern(r[c].S)
			}
		}
	}
	if cap(cb.ts) < n {
		cb.ts = make([]int64, n)
	} else {
		cb.ts = cb.ts[:n]
	}
	if cap(cb.exp) < n {
		cb.exp = make([]int64, n)
	} else {
		cb.exp = cb.exp[:n]
	}
	if cap(cb.neg) < n {
		cb.neg = make([]bool, n)
	} else {
		cb.neg = cb.neg[:n]
	}
	for i := 0; i < n; i++ {
		cb.ts[i] = ts
		cb.exp[i] = exp
		cb.neg[i] = false
	}
	cb.n = n
	return true
}

// AppendRow appends one row-form tuple; same contract as AppendVals.
func (cb *ColBatch) AppendRow(t Tuple, in *Interner) bool {
	return cb.AppendVals(t.TS, t.Exp, t.Neg, t.Vals, in)
}

// FromRows resets the batch and lays out rows. On any kind mismatch the
// batch is reset and false is returned: conversion is all-or-nothing per
// run, so a mixed run falls back to row processing in one piece.
func (cb *ColBatch) FromRows(rows []Tuple, in *Interner) bool {
	cb.Reset()
	for i := range rows {
		if !cb.AppendRow(rows[i], in) {
			cb.Reset()
			return false
		}
	}
	return true
}

// StampExp sets every row's expiration to exp — the vectorized form of the
// window's per-tuple Exp stamping for a same-timestamp run.
func (cb *ColBatch) StampExp(exp int64) {
	for i := range cb.exp {
		cb.exp[i] = exp
	}
}

// AppendMasked appends the rows of src whose mask entry is true (all rows
// when mask is nil). The batches must have layout-equal schemas and share
// one interner. The mask is materialized into a survivor index list once, so
// each column gathers exactly the selected rows instead of re-testing the
// mask per column — under selective predicates that is the difference between
// O(columns × rows) branches and O(columns × survivors) copies.
func (cb *ColBatch) AppendMasked(src *ColBatch, mask []bool) {
	if mask == nil {
		for c := range cb.cols {
			dst, sv := &cb.cols[c], &src.cols[c]
			switch dst.Kind {
			case KindInt:
				dst.Int = append(dst.Int, sv.Int...)
			case KindFloat:
				dst.Float = append(dst.Float, sv.Float...)
			default:
				dst.ID = append(dst.ID, sv.ID...)
			}
		}
		cb.ts = append(cb.ts, src.ts...)
		cb.exp = append(cb.exp, src.exp...)
		cb.neg = append(cb.neg, src.neg...)
		cb.n += src.n
		cb.negs += src.negs
		return
	}
	idx := cb.maskIdx[:0]
	for i := 0; i < src.n; i++ {
		if mask[i] {
			idx = append(idx, int32(i))
		}
	}
	cb.maskIdx = idx
	cb.appendByIndex(src, idx)
}

// AppendMaskedBits appends the rows of src whose bit is set in the packed
// bitset mask: row i lives at bit i&63 of word i>>6. Bits at positions ≥
// src.Len() must be zero. The survivor indexes are recovered word-at-a-time
// with TrailingZeros64 — cost proportional to popcount, not row count — and
// then gathered column by column exactly like AppendMasked.
func (cb *ColBatch) AppendMaskedBits(src *ColBatch, mask []uint64) {
	idx := cb.maskIdx[:0]
	for w, word := range mask {
		base := int32(w) << 6
		for word != 0 {
			idx = append(idx, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	cb.maskIdx = idx
	cb.appendByIndex(src, idx)
}

// appendByIndex gathers the src rows at idx onto the tail (the shared body of
// the masked appends).
func (cb *ColBatch) appendByIndex(src *ColBatch, idx []int32) {
	if len(idx) == 0 {
		return
	}
	for c := range cb.cols {
		dst, sv := &cb.cols[c], &src.cols[c]
		switch dst.Kind {
		case KindInt:
			for _, i := range idx {
				dst.Int = append(dst.Int, sv.Int[i])
			}
		case KindFloat:
			for _, i := range idx {
				dst.Float = append(dst.Float, sv.Float[i])
			}
		default:
			for _, i := range idx {
				dst.ID = append(dst.ID, sv.ID[i])
			}
		}
	}
	for _, i := range idx {
		cb.ts = append(cb.ts, src.ts[i])
		cb.exp = append(cb.exp, src.exp[i])
		neg := src.neg[i]
		cb.neg = append(cb.neg, neg)
		if neg {
			cb.negs++
		}
	}
	cb.n += len(idx)
}

// AppendProjection appends every row of src keeping only the columns at the
// given positions, in that order (the columnar form of projection). The
// batch's column kinds must equal src's kinds at those positions.
func (cb *ColBatch) AppendProjection(src *ColBatch, cols []int) {
	for j, c := range cols {
		dst, sv := &cb.cols[j], &src.cols[c]
		switch dst.Kind {
		case KindInt:
			dst.Int = append(dst.Int, sv.Int...)
		case KindFloat:
			dst.Float = append(dst.Float, sv.Float...)
		default:
			dst.ID = append(dst.ID, sv.ID...)
		}
	}
	cb.ts = append(cb.ts, src.ts...)
	cb.exp = append(cb.exp, src.exp...)
	cb.neg = append(cb.neg, src.neg...)
	cb.n += src.n
	cb.negs += src.negs
}

// AppendJoin appends one join result row: the values of src row `row` on
// input side `side` concatenated (left then right) with the stored opposite-
// side values `other`. It reports false — leaving the batch unchanged — when
// other's kinds disagree with the batch's layout, which means row-path state
// holds tuples outside the declared schema kinds. Both batches and the
// stored values must share one interner.
func (cb *ColBatch) AppendJoin(src *ColBatch, row, side int, other []Value, ts, exp int64, neg bool, in *Interner) bool {
	off := 0
	if side == 0 {
		off = src.Width()
	}
	if off+len(other) > len(cb.kinds) {
		return false
	}
	for i := range other {
		if other[i].Kind != cb.kinds[off+i] {
			return false
		}
	}
	if side == 0 {
		for j := 0; j < src.Width(); j++ {
			cb.cols[j].appendFrom(&src.cols[j], row)
		}
		for i := range other {
			cb.cols[off+i].append(other[i], in)
		}
	} else {
		for i := range other {
			cb.cols[i].append(other[i], in)
		}
		for j := 0; j < src.Width(); j++ {
			cb.cols[len(other)+j].appendFrom(&src.cols[j], row)
		}
	}
	cb.ts = append(cb.ts, ts)
	cb.exp = append(cb.exp, exp)
	cb.neg = append(cb.neg, neg)
	if neg {
		cb.negs++
	}
	cb.n++
	return true
}

// RowTuple materializes row i in row form, carving the value slice from
// arena (or allocating when arena is nil).
func (cb *ColBatch) RowTuple(i int, arena *ValueArena, in *Interner) Tuple {
	var vals []Value
	if arena != nil {
		vals = arena.Alloc(len(cb.kinds))
	} else {
		vals = make([]Value, len(cb.kinds))
	}
	for c := range cb.cols {
		vals[c] = cb.cols[c].value(i, in)
	}
	return Tuple{TS: cb.ts[i], Exp: cb.exp[i], Neg: cb.neg[i], Vals: vals}
}

// AppendRowsTo materializes every row onto dst in row order.
func (cb *ColBatch) AppendRowsTo(dst []Tuple, arena *ValueArena, in *Interner) []Tuple {
	for i := 0; i < cb.n; i++ {
		dst = append(dst, cb.RowTuple(i, arena, in))
	}
	return dst
}

// Key extracts row i's composite key over cols with exactly the semantics of
// Tuple.Key — canonicalized values, allocation-free for up to three columns
// — so columnar probes address the same hash buckets row-path operations do.
func (cb *ColBatch) Key(row int, cols []int, in *Interner) Key {
	if len(cols) >= 1 && len(cols) <= 3 {
		var k Key
		k.n = len(cols)
		for i, c := range cols {
			k.v[i] = cb.cols[c].value(row, in).Canonical()
		}
		return k
	}
	// Wide keys take the row-form rendering path; they are off the hot path
	// by construction (joins key on few columns).
	cb.keyVals = cb.keyVals[:0]
	cb.keyIdx = cb.keyIdx[:0]
	for i, c := range cols {
		cb.keyVals = append(cb.keyVals, cb.cols[c].value(row, in))
		cb.keyIdx = append(cb.keyIdx, i)
	}
	return Tuple{Vals: cb.keyVals}.Key(cb.keyIdx)
}
