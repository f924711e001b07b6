package operator

import (
	"math/rand"
	"testing"

	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Equivalence tests for the stateful columnar kernels (colstateful.go): each
// drives a row-path operator and a columnar twin through identical scripts of
// positive runs, retractions, and Advance waves, demanding identical
// emissions and state accounting at every step. The scripts deliberately
// cross expiration boundaries so run-grain Advance, per-group replacement
// waves, and representative promotion all fire on both paths.

// colStatefulScript interleaves positive runs with retractions of genuinely
// inserted tuples, calling check after every event.
func colStatefulScript(t *testing.T, rowOp, colOp Operator, sides int, rounds int, seed int64, outSchema *tuple.Schema) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	intern := tuple.NewInterner()
	in := tuple.NewColBatch(colTestSchema)
	inserted := make([][]tuple.Tuple, sides)
	for round := 0; round < rounds; round++ {
		now := int64(15 * round)
		side := round % sides
		// Trim the retraction pool to still-live tuples.
		keep := inserted[side][:0]
		for _, v := range inserted[side] {
			if v.Exp > now {
				keep = append(keep, v)
			}
		}
		inserted[side] = keep

		rows := randColRows(rng, 8+rng.Intn(8), now, false)
		if round >= 3 && rng.Intn(2) == 0 && len(inserted[side]) > 0 {
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
				inserted[side] = append(inserted[side], r)
			}
		}
		rowOut, colOut := runBothPaths(t, rowOp, colOp, side, rows, now, in, intern, outSchema)
		requireSameEmissions(t, rowOut, colOut)
		if rowOp.StateSize() != colOp.StateSize() {
			t.Fatalf("round %d: state diverged (%d vs %d)", round, rowOp.StateSize(), colOp.StateSize())
		}
		if rowOp.Touched() != colOp.Touched() {
			t.Fatalf("round %d: touched diverged (%d vs %d)", round, rowOp.Touched(), colOp.Touched())
		}
		if round%4 == 3 {
			a, errA := rowOp.Advance(now + 5)
			b, errB := colOp.Advance(now + 5)
			if errA != nil || errB != nil {
				t.Fatalf("round %d: Advance errs %v/%v", round, errA, errB)
			}
			requireSameEmissions(t, a, b)
		}
	}
}

func colTestGroupBy(t *testing.T, aggs []AggSpec, buf statebuf.Config, noTimeExpiry bool) *GroupBy {
	t.Helper()
	g, err := NewGroupBy(GroupByConfig{
		Input:        colTestSchema,
		GroupCols:    []int{1}, // group by proto (interned string keys)
		Aggs:         aggs,
		InputBuf:     buf,
		NoTimeExpiry: noTimeExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestColKernelGroupByEquivalence(t *testing.T) {
	cases := []struct {
		name string
		aggs []AggSpec
		buf  statebuf.Config
		nt   bool
	}{
		{"count-hash", []AggSpec{{Kind: Count}}, statebuf.Config{Kind: statebuf.KindHash}, false},
		{"count-sum-fifo", []AggSpec{{Kind: Count}, {Kind: Sum, Col: 2}}, statebuf.Config{Kind: statebuf.KindFIFO}, false},
		{"avg-min-max-list", []AggSpec{{Kind: Avg, Col: 2}, {Kind: Min, Col: 0}, {Kind: Max, Col: 2}}, statebuf.Config{Kind: statebuf.KindList}, false},
		{"count-hash-nt", []AggSpec{{Kind: Count}, {Kind: Sum, Col: 0}}, statebuf.Config{Kind: statebuf.KindHash}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rowOp := colTestGroupBy(t, tc.aggs, tc.buf, tc.nt)
			colOp := colTestGroupBy(t, tc.aggs, tc.buf, tc.nt)
			if !ColSupported(colOp) {
				t.Fatal("groupby reported unsupported")
			}
			colStatefulScript(t, rowOp, colOp, 1, 16, 21, colOp.Schema())
		})
	}
}

func colTestDistinct(t *testing.T, inputKind statebuf.Kind, timeExpiry bool) *Distinct {
	t.Helper()
	return NewDistinct(DistinctConfig{
		Schema:     colTestSchema,
		InputBuf:   statebuf.Config{Kind: inputKind},
		RepIdx:     statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 256, Partitions: 8},
		TimeExpiry: timeExpiry,
	})
}

func colTestNegate(t *testing.T, noTimeExpiry bool) *Negate {
	t.Helper()
	n, err := NewNegate(NegateConfig{
		Left: colTestSchema, Right: colTestSchema,
		LeftCols: []int{1}, RightCols: []int{1}, // match on proto
		Horizon: 256, Partitions: 8,
		NoTimeExpiry: noTimeExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStatefulStateSizeFootprint pins the StateSize contract shared by the
// three stateful-tail operators: every retained structure counts — stored
// tuples, representatives, and expiration-calendar entries alike — and
// structures a strategy never reads stay empty. Before this accounting,
// Distinct's calendar entries were invisible to the state-size sampler and
// the NT variants leaked calendar entries that Advance would never drain.
func TestStatefulStateSizeFootprint(t *testing.T) {
	row := func(ts, exp int64, id int64, proto string) tuple.Tuple {
		return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{
			tuple.Int(id), tuple.String_(proto), tuple.Float(1),
		}}
	}

	t.Run("distinct-calendar", func(t *testing.T) {
		d := colTestDistinct(t, statebuf.KindHash, true)
		mustProcess(t, d, 0, row(1, 100, 1, "ftp"), 1)
		mustProcess(t, d, 0, row(2, 120, 1, "ftp"), 2) // duplicate
		// 2 input tuples + 1 rep + 1 calendar entry tracking the rep.
		if got := d.StateSize(); got != 4 {
			t.Errorf("StateSize = %d, want 4 (input 2 + rep 1 + calendar 1)", got)
		}
		mustAdvance(t, d, 120)
		if got := d.StateSize(); got != 0 {
			t.Errorf("drained StateSize = %d", got)
		}
	})

	t.Run("distinct-nt-calendar-stays-empty", func(t *testing.T) {
		d := colTestDistinct(t, statebuf.KindHash, false)
		a := row(1, 100, 1, "ftp")
		mustProcess(t, d, 0, a, 1)
		// Without time expiry the calendar is never consulted, so it must not
		// accumulate: 1 input + 1 rep only.
		if got := d.StateSize(); got != 2 {
			t.Errorf("StateSize = %d, want 2 (input 1 + rep 1, no calendar)", got)
		}
		mustProcess(t, d, 0, a.Negative(2), 2)
		if got := d.StateSize(); got != 0 {
			t.Errorf("retraction must drain all state: StateSize = %d", got)
		}
	})

	t.Run("distinct-delta", func(t *testing.T) {
		d := NewDistinctDelta(colTestSchema, 256, 8)
		mustProcess(t, d, 0, row(1, 100, 1, "ftp"), 1)
		mustProcess(t, d, 0, row(2, 150, 1, "ftp"), 2) // longer-lived aux
		// 1 rep + 1 aux + 1 calendar entry.
		if got := d.StateSize(); got != 3 {
			t.Errorf("StateSize = %d, want 3 (rep 1 + aux 1 + calendar 1)", got)
		}
	})

	t.Run("negate-nt-calendars-stay-empty", func(t *testing.T) {
		n := colTestNegate(t, true)
		a := row(1, 100, 1, "ftp")
		b := row(2, 110, 2, "ftp")
		mustProcess(t, n, 0, a, 1)
		mustProcess(t, n, 1, b, 2)
		// W1 holds a, W2 holds b; no calendar entries under NT.
		if got := n.StateSize(); got != 2 {
			t.Errorf("StateSize = %d, want 2 (w1 1 + w2 1, no calendars)", got)
		}
		mustProcess(t, n, 0, a.Negative(3), 3)
		mustProcess(t, n, 1, b.Negative(4), 4)
		if got := n.StateSize(); got != 0 {
			t.Errorf("retractions must drain all state: StateSize = %d", got)
		}
	})
}
