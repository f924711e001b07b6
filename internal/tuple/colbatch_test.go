package tuple

import (
	"math"
	"math/rand"
	"testing"
)

func randSchema(rng *rand.Rand, width int) *Schema {
	kinds := []Kind{KindInt, KindFloat, KindString}
	cols := make([]Column, width)
	for i := range cols {
		cols[i] = Column{Name: string(rune('a' + i)), Kind: kinds[rng.Intn(len(kinds))]}
	}
	return MustSchema(cols...)
}

func randRow(rng *rand.Rand, schema *Schema, ts int64) Tuple {
	vals := make([]Value, schema.Len())
	for i := range vals {
		switch schema.Col(i).Kind {
		case KindInt:
			vals[i] = Int(rng.Int63n(1000) - 500)
		case KindFloat:
			vals[i] = Float(rng.Float64()*100 - 50)
		default:
			vals[i] = String_([]string{"ftp", "http", "smtp", "dns", ""}[rng.Intn(5)])
		}
	}
	exp := ts + rng.Int63n(100)
	if rng.Intn(8) == 0 {
		exp = NeverExpires
	}
	return Tuple{TS: ts, Exp: exp, Neg: rng.Intn(4) == 0, Vals: vals}
}

// TestColBatchRoundTripProperty is the satellite property test: for random
// schemas over all three scalar kinds, row → column → row conversion is
// lossless — including negative tuples, NeverExpires stamps, and zero-width
// batches — and every per-row accessor agrees with the source row.
func TestColBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		width := rng.Intn(6) + 1
		schema := randSchema(rng, width)
		in := NewInterner()
		cb := NewColBatch(schema)
		n := rng.Intn(40) // zero-row batches included
		rows := make([]Tuple, n)
		ts := int64(rng.Intn(1000))
		for i := range rows {
			rows[i] = randRow(rng, schema, ts)
		}
		if !cb.FromRows(rows, in) {
			t.Fatalf("trial %d: conversion of kind-conforming rows failed", trial)
		}
		if cb.Len() != n || cb.Width() != width {
			t.Fatalf("trial %d: dims %dx%d, want %dx%d", trial, cb.Len(), cb.Width(), n, width)
		}
		var arena ValueArena
		back := cb.AppendRowsTo(nil, &arena, in)
		if len(back) != n {
			t.Fatalf("trial %d: %d rows back, want %d", trial, len(back), n)
		}
		for i := range rows {
			want, got := rows[i], back[i]
			if got.TS != want.TS || got.Exp != want.Exp || got.Neg != want.Neg || !got.SameVals(want) {
				t.Fatalf("trial %d row %d: round-trip %v != %v", trial, i, got, want)
			}
			if cb.TSAt(i) != want.TS || cb.ExpAt(i) != want.Exp || cb.NegAt(i) != want.Neg {
				t.Fatalf("trial %d row %d: accessor mismatch", trial, i)
			}
			for c := 0; c < width; c++ {
				if !cb.ValueAt(i, c, in).Equal(want.Vals[c]) {
					t.Fatalf("trial %d row %d col %d: %v != %v", trial, i, c, cb.ValueAt(i, c, in), want.Vals[c])
				}
			}
		}
	}
}

// TestColBatchRejectsKindMismatch checks the all-or-nothing contract: a run
// containing one off-kind value (NULL, or a value whose kind disagrees with
// the column) fails conversion as a whole and leaves the batch empty.
func TestColBatchRejectsKindMismatch(t *testing.T) {
	schema := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "proto", Kind: KindString})
	in := NewInterner()
	cb := NewColBatch(schema)
	bad := [][]Value{
		{Int(1), Null},                 // NULL in a typed column
		{Float(1.5), String_("ftp")},   // float in an int column
		{Int(1), Int(2)},               // int in a string column
		{Int(1)},                       // width mismatch
		{Int(1), String_("ftp"), Null}, // width mismatch
	}
	for i, vals := range bad {
		rows := []Tuple{
			{TS: 1, Exp: 10, Vals: []Value{Int(1), String_("ftp")}},
			{TS: 1, Exp: 10, Vals: vals},
		}
		if cb.FromRows(rows, in) {
			t.Fatalf("case %d: conversion of off-kind run succeeded", i)
		}
		if cb.Len() != 0 {
			t.Fatalf("case %d: failed conversion left %d rows", i, cb.Len())
		}
	}
	// The batch still works after rejections.
	if !cb.FromRows([]Tuple{{TS: 2, Exp: 20, Vals: []Value{Int(7), String_("dns")}}}, in) {
		t.Fatal("conversion after rejection failed")
	}
	if cb.Len() != 1 {
		t.Fatal("batch unusable after rejection")
	}
}

func TestColBatchStampExp(t *testing.T) {
	schema := MustSchema(Column{Name: "id", Kind: KindInt})
	in := NewInterner()
	cb := NewColBatch(schema)
	for i := int64(0); i < 5; i++ {
		if !cb.AppendVals(100, 0, false, []Value{Int(i)}, in) {
			t.Fatal("append failed")
		}
	}
	cb.StampExp(2, 175)
	for i := 0; i < cb.Len(); i++ {
		want := int64(0)
		if i >= 2 {
			want = 175
		}
		if cb.ExpAt(i) != want {
			t.Fatalf("row %d Exp = %d, want %d", i, cb.ExpAt(i), want)
		}
	}
}

// TestColBatchAppendRunAppends lays several runs out on one batch: each lands
// after the rows already there with its own TS and Exp, and a run refused in
// its last column leaves the batch as it was, rows, kinds and capacity alike.
func TestColBatchAppendRunAppends(t *testing.T) {
	schema := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString},
		Column{Name: "c", Kind: KindFloat})
	in := NewInterner()
	cb := NewColBatch(schema)
	row := func(i int64, s string) []Value { return []Value{Int(i), String_(s), Float(float64(i) / 2)} }
	if !cb.AppendRun(1, 11, [][]Value{row(0, "x"), row(1, "y")}, in) {
		t.Fatal("first run refused")
	}
	bad := [][]Value{row(7, "z"), {Int(8), String_("z"), Int(8)}}
	if cb.AppendRun(2, 12, bad, in) {
		t.Fatal("a run with an Int in a float column was laid out")
	}
	if cb.Len() != 2 || len(cb.Col(0).Int) != 2 || len(cb.Col(1).ID) != 2 || len(cb.Col(2).Float) != 2 {
		t.Fatalf("the refused run left %d rows, vectors %d/%d/%d", cb.Len(),
			len(cb.Col(0).Int), len(cb.Col(1).ID), len(cb.Col(2).Float))
	}
	if !cb.AppendRun(3, 13, [][]Value{row(2, "y")}, in) {
		t.Fatal("third run refused")
	}
	want := []Tuple{
		{TS: 1, Exp: 11, Vals: row(0, "x")}, {TS: 1, Exp: 11, Vals: row(1, "y")}, {TS: 3, Exp: 13, Vals: row(2, "y")},
	}
	got := cb.AppendRowsTo(nil, nil, in)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TS != want[i].TS || got[i].Exp != want[i].Exp || got[i].Neg || !got[i].SameVals(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestColBatchView reads a row range of a batch through a view without a
// copy, and checks that neither appending to the view nor reusing it after
// Reset writes into the batch it aliases.
func TestColBatchView(t *testing.T) {
	schema := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	in := NewInterner()
	src := NewColBatch(schema)
	for i := int64(0); i < 6; i++ {
		src.AppendVals(i, i+10, i == 3, []Value{Int(i), String_("s")}, in)
	}
	var v ColBatch
	v.View(src, 2, 5)
	if v.Len() != 3 || v.Width() != 2 || v.Schema() != schema || v.NegCount() != 1 {
		t.Fatalf("view: len %d width %d negs %d", v.Len(), v.Width(), v.NegCount())
	}
	for i := 0; i < v.Len(); i++ {
		if v.TSAt(i) != int64(i+2) || v.ExpAt(i) != int64(i+12) || v.ValueAt(i, 0, in).I != int64(i+2) {
			t.Fatalf("view row %d = %v", i, v.RowTuple(i, nil, in))
		}
	}
	if &v.Col(0).Int[0] != &src.Col(0).Int[2] {
		t.Fatal("the view copied its rows")
	}
	v.AppendVals(99, 99, false, []Value{Int(99), String_("t")}, in)
	v.Reset()
	v.AppendVals(98, 98, false, []Value{Int(98), String_("t")}, in)
	for i := 0; i < src.Len(); i++ {
		if src.TSAt(i) != int64(i) || src.ValueAt(i, 0, in).I != int64(i) {
			t.Fatalf("writing through the view changed source row %d to %v", i, src.RowTuple(i, nil, in))
		}
	}
	if v.Len() != 1 || v.ValueAt(0, 0, in).I != 98 {
		t.Fatalf("the reset view holds %d rows", v.Len())
	}
}

// TestColBatchKeyMatchesTupleKey checks columnar key extraction produces keys
// ==-equal (and hash-equal) to the row path's, for narrow and wide column
// sets, so columnar probes and row-path removals address the same buckets.
func TestColBatchKeyMatchesTupleKey(t *testing.T) {
	schema := MustSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
		Column{Name: "c", Kind: KindFloat},
		Column{Name: "d", Kind: KindInt},
		Column{Name: "e", Kind: KindFloat},
	)
	in := NewInterner()
	cb := NewColBatch(schema)
	rows := []Tuple{
		{TS: 1, Exp: 9, Vals: []Value{Int(7), String_("ftp"), Float(2.5), Int(-3), Float(4)}},
		{TS: 1, Exp: 9, Vals: []Value{Int(0), String_(""), Float(7), Int(9), Float(-0.25)}},
	}
	if !cb.FromRows(rows, in) {
		t.Fatal("conversion failed")
	}
	for _, cols := range [][]int{{0}, {1}, {0, 2}, {1, 3, 4}, {0, 1, 2, 3}, {4, 3, 2, 1, 0}} {
		for i := range rows {
			want := rows[i].Key(cols)
			got := cb.Key(i, cols, in)
			if got != want {
				t.Errorf("cols %v row %d: columnar key %v != row key %v", cols, i, got, want)
			}
			if got.Hash64() != want.Hash64() {
				t.Errorf("cols %v row %d: hash mismatch", cols, i)
			}
		}
	}
	// Float 4.0 must canonicalize to Int 4 on both paths.
	if cb.Key(0, []int{4}, in) != (Tuple{Vals: []Value{Int(4)}}).Key([]int{0}) {
		t.Error("integral float did not canonicalize on the columnar path")
	}
}

func TestColBatchAppendJoin(t *testing.T) {
	left := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	right := MustSchema(Column{Name: "c", Kind: KindInt}, Column{Name: "d", Kind: KindFloat})
	out := left.Concat(right)
	in := NewInterner()

	lb := NewColBatch(left)
	if !lb.AppendVals(5, 50, false, []Value{Int(1), String_("ftp")}, in) {
		t.Fatal("append failed")
	}
	ob := NewColBatch(out)
	// Probe from the left side: stored right values go after src columns.
	if !ob.AppendJoin(lb, 0, 0, []Value{Int(2), Float(3.5)}, 5, 40, false, in) {
		t.Fatal("AppendJoin side 0 failed")
	}
	// Probe from the right side: stored left values go before src columns.
	rb := NewColBatch(right)
	if !rb.AppendVals(6, 60, true, []Value{Int(2), Float(3.5)}, in) {
		t.Fatal("append failed")
	}
	if !ob.AppendJoin(rb, 0, 1, []Value{Int(9), String_("dns")}, 6, 55, true, in) {
		t.Fatal("AppendJoin side 1 failed")
	}

	var arena ValueArena
	got := ob.AppendRowsTo(nil, &arena, in)
	want := []Tuple{
		{TS: 5, Exp: 40, Vals: []Value{Int(1), String_("ftp"), Int(2), Float(3.5)}},
		{TS: 6, Exp: 55, Neg: true, Vals: []Value{Int(9), String_("dns"), Int(2), Float(3.5)}},
	}
	for i := range want {
		if got[i].TS != want[i].TS || got[i].Exp != want[i].Exp || got[i].Neg != want[i].Neg || !got[i].SameVals(want[i]) {
			t.Errorf("row %d: %v, want %v", i, got[i], want[i])
		}
	}

	// Off-kind stored values are rejected without mutating the batch.
	n := ob.Len()
	if ob.AppendJoin(lb, 0, 0, []Value{Null, Float(3.5)}, 5, 40, false, in) {
		t.Error("AppendJoin accepted off-kind stored values")
	}
	if ob.Len() != n {
		t.Error("failed AppendJoin mutated the batch")
	}
}

func TestColBatchAppendMaskedBits(t *testing.T) {
	schema := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	in := NewInterner()
	src := NewColBatch(schema)
	for i := int64(0); i < 4; i++ {
		src.AppendVals(i, i+10, i%2 == 1, []Value{Int(i), String_("s")}, in)
	}

	dst := NewColBatch(schema)
	dst.AppendMaskedBits(src, []uint64{0b1001})
	if dst.Len() != 2 || dst.Col(0).Int[0] != 0 || dst.Col(0).Int[1] != 3 {
		t.Fatalf("masked append wrong: len=%d", dst.Len())
	}
	if !dst.NegAt(1) || dst.NegAt(0) || dst.NegCount() != 1 {
		t.Fatal("masked append dropped Neg flags")
	}
	if g := dst.Gathered(); len(g) != 2 || g[0] != 0 || g[1] != 3 {
		t.Fatalf("Gathered() = %v, want [0 3]", g)
	}
	dst.Reset()
	dst.AppendMaskedBits(src, []uint64{0})
	if dst.Len() != 0 {
		t.Fatalf("empty-mask append: len=%d, want 0", dst.Len())
	}
}

func TestValueArena(t *testing.T) {
	var a ValueArena
	if got := a.Alloc(0); got != nil {
		t.Fatal("Alloc(0) must return nil")
	}
	x := a.Alloc(3)
	y := a.Alloc(2)
	if len(x) != 3 || len(y) != 2 {
		t.Fatalf("lengths %d, %d", len(x), len(y))
	}
	if cap(x) != 3 {
		t.Fatalf("cap(x) = %d, want 3: appends must copy out, not clobber neighbors", cap(x))
	}
	x[2] = Int(42)
	if y[0].Kind() != KindNull || y[1].Kind() != KindNull {
		t.Fatal("arena rows overlap")
	}
	// Appending to an arena row must not overwrite the next row.
	_ = append(x, Int(99))
	if y[0].Kind() != KindNull {
		t.Fatal("append on arena row clobbered neighbor")
	}
	// Oversized requests still work.
	big := a.Alloc(arenaSlab)
	if len(big) != arenaSlab {
		t.Fatal("oversized alloc wrong length")
	}
	// Steady state allocates ~1/(slab/n) per call; far under 1.
	allocs := testing.AllocsPerRun(1000, func() { _ = a.Alloc(4) })
	if allocs > 0.05 {
		t.Errorf("steady-state arena alloc: %v allocs/op", allocs)
	}
}

func TestColumnarKinds(t *testing.T) {
	ok := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindFloat}, Column{Name: "c", Kind: KindString})
	if !ColumnarKinds(ok) {
		t.Error("scalar schema reported unsupported")
	}
	bad := MustSchema(Column{Name: "a", Kind: KindNull})
	if ColumnarKinds(bad) {
		t.Error("NULL-kinded schema reported supported")
	}
}

func TestColBatchNaNRoundTrip(t *testing.T) {
	schema := MustSchema(Column{Name: "f", Kind: KindFloat})
	in := NewInterner()
	cb := NewColBatch(schema)
	if !cb.AppendVals(1, 2, false, []Value{Float(math.NaN())}, in) {
		t.Fatal("append failed")
	}
	got := cb.ValueAt(0, 0, in)
	if !math.IsNaN(got.F()) {
		t.Fatalf("NaN did not survive: %v", got)
	}
	// Canonical key semantics: NaN keys equal themselves on both paths.
	if cb.Key(0, []int{0}, in) != (Tuple{Vals: []Value{Float(math.NaN())}}).Key([]int{0}) {
		t.Error("NaN key mismatch between columnar and row paths")
	}
}
