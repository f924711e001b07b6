package operator

import (
	"testing"

	"repro/internal/tuple"
)

// TestQuotaCoreTouchesOnlyWhatItMust states negation's O(1) per event as
// counts: with 10 000 W1 tuples stored over 100 values, a W1 arrival, a W2
// arrival, a W2 expiration and an out-of-order W1 expiration each touch at
// most a small constant of the operator's own state, where a scan for the
// oldest member or the youngest outsider would visit a value's hundred. The
// calendars' sorted-insert shifts are reported apart: they depend on how far
// out of Exp order the input arrives, not on the operator. Intersection's
// leg is testIntersectTouches.
func TestQuotaCoreTouchesOnlyWhatItMust(t *testing.T) {
	const (
		stored = 10000
		values = 100
		life   = 20000
		most   = 3 // touches per event
	)
	n, err := NewNegate(NegateConfig{
		Left: linkSchema(), Right: linkSchema(), LeftCols: []int{0}, RightCols: []int{0},
		Horizon: life + 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out Emit
	now := int64(0)
	event := func(name string, do func() int) {
		t.Helper()
		before := n.touched
		events := do()
		if got := n.touched - before; events == 0 || got > most*int64(events) {
			t.Errorf("%s: %d events touched %d entries, want at most %d each", name, events, got, most)
		}
	}
	arrive := func(side int, tp tuple.Tuple) int {
		out.Reset()
		if err := n.ProcessBatch(side, []tuple.Tuple{tp}, now, &out); err != nil {
			t.Fatal(err)
		}
		return 1
	}
	// W1 tuples arrive with Exp up to 64 out of arrival order.
	for i := int64(0); i < stored; i++ {
		now = i
		tp := linkTuple(i, i+life-(i*37)%64, i%values, "w1", i)
		event("W1 arrival", func() int { return arrive(0, tp) })
	}
	shifts := n.calTouched()
	// One W2 tuple per value: each takes the oldest of its value's hundred
	// out of the answer.
	for v := int64(0); v < values; v++ {
		tp := linkTuple(now, now+10+v%5, v, "w2", v)
		event("W2 arrival", func() int { return arrive(1, tp) })
	}
	// The W2 tuples expire: each value's youngest outsider comes back.
	for _, step := range []int64{10, 12, 15} {
		now = stored - 1 + step
		event("W2 expiration wave", func() int {
			out.Reset()
			adv, err := n.Advance(now)
			if err != nil {
				t.Fatal(err)
			}
			return len(adv)
		})
	}
	// A few W2 tuples again, so W1 expirations outside the answer shrink it,
	// then the W1 tuples expire out of their arrival order.
	for v := int64(0); v < values; v += 10 {
		tp := linkTuple(now, now+life, v, "w2", v)
		event("W2 arrival", func() int { return arrive(1, tp) })
	}
	for now = life; now < stored+life+500; now += 500 {
		before := n.size[0]
		event("W1 expiration wave", func() int {
			if _, err := n.Advance(now); err != nil {
				t.Fatal(err)
			}
			return before - n.size[0]
		})
	}
	t.Logf("calendar sorted-insert shifts for %d out-of-order W1 arrivals: %d", stored, shifts)
	t.Run("intersection", testIntersectTouches)
}

// testIntersectTouches is the intersection leg: a pairing looks at the tail
// of the other side's unpaired list and a support that waits parks from the
// tail of its own, so in-order arrivals touch a small constant each. Twins
// that share an Exp are the exception: a pairing takes the first to arrive
// among them, walking back over the unpaired ones, so k twins arriving at
// one TS against k waiting cost k(k+1)/2 touches.
func testIntersectTouches(t *testing.T) {
	const (
		stored = 10000
		values = 100
		life   = 20000
		most   = 3 // touches per event
		twins  = 50
	)
	x, err := NewIntersect(IntersectConfig{Left: ipSchema1(), Right: ipSchema1(), Horizon: life + 100})
	if err != nil {
		t.Fatal(err)
	}
	var out Emit
	arrive := func(side int, tp tuple.Tuple) {
		out.Reset()
		if err := x.ProcessBatch(side, []tuple.Tuple{tp}, tp.TS, &out); err != nil {
			t.Fatal(err)
		}
	}
	// A third of the supports arrive on the left and wait; the rest arrive on
	// the right, pair with them, then wait in turn.
	before := x.touched
	for i := int64(0); i < stored; i++ {
		side := 0
		if i >= stored/3 {
			side = 1
		}
		arrive(side, ip(i, i+life, i%values))
	}
	if got := x.touched - before; got > most*stored {
		t.Errorf("%d in-order arrivals touched %d supports, want at most %d each", stored, got, most)
	}
	// Twins at one TS: the left ones wait, each right one pairs.
	ts := int64(stored)
	for side := range 2 {
		before := x.touched
		for range twins {
			arrive(side, ip(ts, ts+life, values))
		}
		want := int64(0)
		if side == 1 {
			want = twins * (twins + 1) / 2
		}
		if got := x.touched - before; got != want {
			t.Errorf("%d side-%d twins touched %d supports, want %d", twins, side, got, want)
		}
	}
}

// TestQuotaCoreSteadyStateAllocFree holds both operators' steady state —
// arrivals on both sides, retractions and re-admissions or re-pairings, and
// an expiration wave every run — to zero allocations: entries come from the
// slab, the calendars and the waves reuse their scratch, and no support is
// heap-allocated on its own.
func TestQuotaCoreSteadyStateAllocFree(t *testing.T) {
	neg, err := NewNegate(NegateConfig{
		Left: linkSchema(), Right: linkSchema(), LeftCols: []int{0}, RightCols: []int{0},
		Horizon: 16, Partitions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	isect, err := NewIntersect(IntersectConfig{Left: linkSchema(), Right: linkSchema(), Horizon: 16, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		op   Operator
	}{{"negation", neg}, {"intersection", isect}} {
		t.Run(op.name, func(t *testing.T) {
			runs := [2][]tuple.Tuple{make([]tuple.Tuple, 16), make([]tuple.Tuple, 16)}
			for side := range runs {
				for i := range runs[side] {
					runs[side][i] = linkTuple(0, 0, int64(i%4), "ftp", 1)
				}
			}
			var out Emit
			now, emitted := int64(0), 0
			tick := func() {
				now++
				out.Reset()
				for side := range runs {
					for i := range runs[side] {
						// Lifetimes differ by position and side, so every run
						// expires some tuples and repairs their values.
						runs[side][i].TS, runs[side][i].Exp = now, now+3+int64((i+side)%7)
					}
					if err := op.op.ProcessBatch(side, runs[side], now, &out); err != nil {
						t.Fatal(err)
					}
				}
				emitted += out.Len()
			}
			for range 200 {
				tick()
			}
			emitted = 0
			allocBudget(t, op.name+" run with an expiration wave", 0, tick)
			if emitted == 0 {
				t.Fatal("the runs emitted nothing")
			}
		})
	}
}
