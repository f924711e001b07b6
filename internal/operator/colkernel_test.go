package operator

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// The columnar kernels must emit exactly what the row batch path emits, in
// order. These tests drive both paths over identical inputs and compare.

var colTestSchema = tuple.MustSchema(
	tuple.Column{Name: "id", Kind: tuple.KindInt},
	tuple.Column{Name: "proto", Kind: tuple.KindString},
	tuple.Column{Name: "len", Kind: tuple.KindFloat},
)

func randColRows(rng *rand.Rand, n int, ts int64, negs bool) []tuple.Tuple {
	protos := []string{"ftp", "http", "smtp"}
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			TS:  ts,
			Exp: ts + 50 + rng.Int63n(100),
			Neg: negs && rng.Intn(5) == 0,
			Vals: []tuple.Value{
				tuple.Int(rng.Int63n(20)),
				tuple.String_(protos[rng.Intn(len(protos))]),
				tuple.Float(float64(rng.Intn(40)) / 4),
			},
		}
	}
	return rows
}

// runBothPaths feeds the same run through the row batch path on rowOp and the
// columnar kernel on colOp, returning both emission lists.
func runBothPaths(t *testing.T, rowOp, colOp Operator, side int, rows []tuple.Tuple, now int64, in *tuple.ColBatch, intern *tuple.Interner, outSchema *tuple.Schema) (rowOut, colOut []tuple.Tuple) {
	t.Helper()
	var em Emit
	if err := rowOp.ProcessBatch(side, rows, now, &em); err != nil {
		t.Fatalf("row path: %v", err)
	}
	if !in.FromRows(rows, intern) {
		t.Fatal("conversion failed")
	}
	out := tuple.NewColBatch(outSchema)
	if err := ProcessColBatch(colOp, side, in, now, out, intern); err != nil {
		t.Fatalf("columnar path: %v", err)
	}
	return em.Tuples(), out.AppendRowsTo(nil, nil, intern)
}

func requireSameEmissions(t *testing.T, rowOut, colOut []tuple.Tuple) {
	t.Helper()
	if len(rowOut) != len(colOut) {
		t.Fatalf("row path emitted %d, columnar %d", len(rowOut), len(colOut))
	}
	for i := range rowOut {
		r, c := rowOut[i], colOut[i]
		if r.TS != c.TS || r.Exp != c.Exp || r.Neg != c.Neg || !r.SameVals(c) {
			t.Fatalf("emission %d: row %v != columnar %v", i, r, c)
		}
	}
}

func TestColKernelSelectEquivalence(t *testing.T) {
	preds := []Predicate{
		ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")},
		ColConst{Col: 1, Op: NE, Val: tuple.String_("ftp")},
		ColConst{Col: 1, Op: EQ, Val: tuple.String_("zzz")}, // never interned
		ColConst{Col: 1, Op: NE, Val: tuple.String_("zzz")},
		ColConst{Col: 0, Op: LT, Val: tuple.Int(10)},
		ColConst{Col: 0, Op: GE, Val: tuple.Int(10)},
		ColConst{Col: 0, Op: EQ, Val: tuple.Int(3)},
		ColConst{Col: 2, Op: GT, Val: tuple.Float(5)},
		ColConst{Col: 0, Op: EQ, Val: tuple.Float(3)}, // cross-kind compare
		ColCol{Left: 0, Right: 2, Op: LE},
		ColCol{Left: 0, Right: 0, Op: EQ},
		True{},
		Not{P: ColConst{Col: 1, Op: EQ, Val: tuple.String_("http")}},
		And{ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")}, ColConst{Col: 0, Op: LT, Val: tuple.Int(12)}},
		Or{ColConst{Col: 1, Op: EQ, Val: tuple.String_("smtp")}, ColConst{Col: 0, Op: GE, Val: tuple.Int(15)}},
		And{},
		Or{},
		And{Or{ColConst{Col: 0, Op: LT, Val: tuple.Int(5)}, Not{P: ColConst{Col: 1, Op: NE, Val: tuple.String_("http")}}}, True{}},
	}
	rng := rand.New(rand.NewSource(11))
	for pi, pred := range preds {
		if !ColSupported(NewSelect(colTestSchema, pred)) {
			t.Fatalf("pred %d (%v) reported unsupported", pi, pred)
		}
		rowOp := NewSelect(colTestSchema, pred)
		colOp := NewSelect(colTestSchema, pred)
		intern := tuple.NewInterner()
		in := tuple.NewColBatch(colTestSchema)
		for round := 0; round < 5; round++ {
			rows := randColRows(rng, rng.Intn(30), int64(100*round), true)
			rowOut, colOut := runBothPaths(t, rowOp, colOp, 0, rows, int64(100*round), in, intern, colTestSchema)
			requireSameEmissions(t, rowOut, colOut)
		}
	}
}

func TestColKernelProjectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, cols := range [][]int{{0}, {1, 2}, {2, 0}, {0, 1, 2}} {
		rowOp, err := NewProject(colTestSchema, cols)
		if err != nil {
			t.Fatal(err)
		}
		colOp, _ := NewProject(colTestSchema, cols)
		if !ColSupported(colOp) {
			t.Fatal("project reported unsupported")
		}
		intern := tuple.NewInterner()
		in := tuple.NewColBatch(colTestSchema)
		rows := randColRows(rng, 25, 100, true)
		rowOut, colOut := runBothPaths(t, rowOp, colOp, 0, rows, 100, in, intern, colOp.Schema())
		requireSameEmissions(t, rowOut, colOut)
	}
}

func colTestJoin(t *testing.T, kind statebuf.Kind, noTimeExpiry bool) *Join {
	t.Helper()
	j, err := NewJoin(JoinConfig{
		Left:     colTestSchema,
		Right:    colTestSchema,
		LeftCols: []int{0}, RightCols: []int{0},
		LeftBuf:      statebuf.Config{Kind: kind, KeyCols: []int{0}},
		RightBuf:     statebuf.Config{Kind: kind, KeyCols: []int{0}},
		NoTimeExpiry: noTimeExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestColKernelJoinEquivalence(t *testing.T) {
	cases := []struct {
		name         string
		kind         statebuf.Kind
		noTimeExpiry bool
	}{
		{"indexed-fifo", statebuf.KindIndexedFIFO, false},
		{"hash-nt", statebuf.KindHash, true},
		{"fifo-scan", statebuf.KindFIFO, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			rowOp := colTestJoin(t, tc.kind, tc.noTimeExpiry)
			colOp := colTestJoin(t, tc.kind, tc.noTimeExpiry)
			if !ColSupported(colOp) {
				t.Fatal("join reported unsupported")
			}
			intern := tuple.NewInterner()
			in := tuple.NewColBatch(colTestSchema)
			outSchema := colTestSchema.Concat(colTestSchema)
			// Interleave positive and negative runs on both sides; retract
			// tuples that were genuinely inserted so Remove exercises hits.
			var inserted [2][]tuple.Tuple
			for round := 0; round < 12; round++ {
				now := int64(20 * round)
				side := round % 2
				rows := randColRows(rng, 10+rng.Intn(10), now, false)
				if round >= 4 && rng.Intn(2) == 0 && len(inserted[side]) > 0 {
					// Build a retraction run from earlier insertions.
					k := rng.Intn(3) + 1
					rows = rows[:0]
					for i := 0; i < k && len(inserted[side]) > 0; i++ {
						j := rng.Intn(len(inserted[side]))
						v := inserted[side][j]
						inserted[side] = append(inserted[side][:j], inserted[side][j+1:]...)
						rows = append(rows, v.Negative(now))
					}
				} else {
					for _, r := range rows {
						inserted[side] = append(inserted[side], r.WithExp(now+75))
					}
				}
				rowOut, colOut := runBothPaths(t, rowOp, colOp, side, rows, now, in, intern, outSchema)
				requireSameEmissions(t, rowOut, colOut)
				if rowOp.StateSize() != colOp.StateSize() {
					t.Fatalf("round %d: state diverged (%d vs %d)", round, rowOp.StateSize(), colOp.StateSize())
				}
				if round%3 == 2 {
					if _, err := rowOp.Advance(now); err != nil {
						t.Fatal(err)
					}
					if _, err := colOp.Advance(now); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

type opaquePred struct{ True }

func (opaquePred) String() string { return "opaque" }

// mustOp unwraps a constructor's result; a constructor error is a test bug.
func mustOp[O Operator](op O, err error) O {
	if err != nil {
		panic(err)
	}
	return op
}

// TestColSupported pins the exact set of operators with a columnar kernel.
// Each kernel stays only because something runs it in columnar form.
func TestColSupported(t *testing.T) {
	tbl := tuple.MustSchema(tuple.Column{Name: "id", Kind: tuple.KindInt})
	accepted := []struct {
		name string
		op   Operator
	}{
		// q1-csv-col runs σ protocol=ftp over the windowed link join.
		{"select", NewSelect(colTestSchema, ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")})},
		{"join", colTestJoin(t, statebuf.KindIndexedFIFO, false)},
		// q6-groupby-col runs the group-by.
		{"groupby", colTestGroupBy(t, []AggSpec{{Kind: Count}}, statebuf.Config{Kind: statebuf.KindHash}, false)},
		// The q2_direct.ckpt and q4_nt.ckpt goldens pin the colOK byte their
		// projection and Distinct plans were written with.
		{"project", mustOp(NewProject(colTestSchema, []int{0}))},
		{"distinct", colTestDistinct(t, statebuf.KindHash, true)},
	}
	for _, c := range accepted {
		if !ColSupported(c.op) {
			t.Errorf("%s must have a kernel", c.name)
		}
	}
	rejected := []struct {
		name string
		op   Operator
	}{
		{"union", mustOp(NewUnion(colTestSchema, colTestSchema))},
		{"distinct-delta", NewDistinctDelta(colTestSchema, 256, 8)},
		{"negate", colTestNegate(t, false)},
		{"intersect", mustOp(NewIntersect(IntersectConfig{Left: colTestSchema, Right: colTestSchema, Horizon: 256}))},
		{"rel-join", mustOp(NewRelJoin(RelJoinConfig{
			Stream: colTestSchema, Table: relation.NewRelation("r", tbl),
			StreamCols: []int{0}, TableCols: []int{0},
			StreamBuf: statebuf.Config{Kind: statebuf.KindFIFO},
		}))},
		{"nrr-join", mustOp(NewNRRJoin(NRRJoinConfig{
			Stream: colTestSchema, Table: relation.NewNRR("n", tbl),
			StreamCols: []int{0}, TableCols: []int{0},
		}))},
	}
	for _, c := range rejected {
		if ColSupported(c.op) {
			t.Errorf("%s must not have a kernel", c.name)
		}
		err := ProcessColBatch(c.op, 0, tuple.NewColBatch(colTestSchema), 0, tuple.NewColBatch(c.op.Schema()), tuple.NewInterner())
		if err == nil {
			t.Errorf("kernel dispatch of %s must error", c.name)
		}
	}

	if ColSupported(NewSelect(colTestSchema, opaquePred{})) {
		t.Error("select with a foreign predicate must not have a kernel")
	}
	if ColSupported(NewSelect(colTestSchema, And{True{}, opaquePred{}})) {
		t.Error("nested foreign predicate must not have a kernel")
	}
	j := colTestJoin(t, statebuf.KindIndexedFIFO, false)
	j.residual = ColCol{Left: 0, Right: 3, Op: NE}
	if !ColSupported(j) {
		t.Error("join with a mask-evaluable residual must have a kernel")
	}
	j.residual = opaquePred{}
	if ColSupported(j) {
		t.Error("join with a foreign residual must not have a kernel")
	}
	if err := ProcessColBatch(NewSelect(colTestSchema, opaquePred{}), 0, tuple.NewColBatch(colTestSchema), 0, tuple.NewColBatch(colTestSchema), tuple.NewInterner()); err == nil {
		t.Error("kernel dispatch of a non-compilable predicate must error")
	}
}
