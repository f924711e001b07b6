package operator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tuple"
)

func newTestNegate(t *testing.T) *Negate {
	t.Helper()
	n, err := NewNegate(NegateConfig{
		Left: ipSchema1(), Right: ipSchema1(),
		LeftCols: []int{0}, RightCols: []int{0},
		Horizon: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNegateBasicEquation1(t *testing.T) {
	n := newTestNegate(t)
	if n.Class() != core.OpNegate || n.Schema().Len() != 1 {
		t.Error("metadata wrong")
	}
	// W1 arrival with no W2 counterpart: in the answer.
	out := mustProcess(t, n, 0, ip(1, 101, 5), 1)
	if len(out) != 1 || out[0].Neg || !out[0].Vals[0].Identical(tuple.Int(5)) || out[0].Exp != 101 {
		t.Fatalf("admit: %v", out)
	}
	// W2 arrival with same value: the result is retracted (negative tuple).
	out = mustProcess(t, n, 1, ip(2, 102, 5), 2)
	if len(out) != 1 || !out[0].Neg || !out[0].Vals[0].Identical(tuple.Int(5)) {
		t.Fatalf("premature retraction: %v", out)
	}
	if n.PrematureRetractions() != 1 {
		t.Errorf("PrematureRetractions = %d", n.PrematureRetractions())
	}
	// A second W1 tuple with the value stays out (v1=2, v2=1 → 1 in answer).
	out = mustProcess(t, n, 0, ip(3, 103, 5), 3)
	if len(out) != 1 || out[0].Neg {
		t.Fatalf("v1=2,v2=1 must admit one: %v", out)
	}
}

func TestNegateW2ExpirationReadmits(t *testing.T) {
	n := newTestNegate(t)
	mustProcess(t, n, 0, ip(1, 101, 5), 1) // admitted
	mustProcess(t, n, 1, ip(2, 52, 5), 2)  // retracts it; W2 tuple expires at 52
	out := mustAdvance(t, n, 52)
	if len(out) != 1 || out[0].Neg || !out[0].Vals[0].Identical(tuple.Int(5)) {
		t.Fatalf("re-admit on W2 expiry: %v", out)
	}
	if out[0].Exp != 101 || out[0].TS != 52 {
		t.Errorf("re-admitted tuple carries its own exp: %v", out[0])
	}
}

func TestNegateW1ExpirationSilent(t *testing.T) {
	n := newTestNegate(t)
	mustProcess(t, n, 0, ip(1, 10, 5), 1)
	// The in-answer tuple expires: it leaves via its exp downstream, no
	// negative tuple (Section 3.2: windowing alone never needs negatives).
	out := mustAdvance(t, n, 10)
	if len(out) != 0 {
		t.Fatalf("window expiration must be silent: %v", out)
	}
	if n.StateSize() != 0 {
		t.Errorf("StateSize = %d", n.StateSize())
	}
}

// TestNegateNonMemberW1ExpiryShrinksQuota covers the corner the paper's
// event rules leave implicit: v1=2, v2=1 with the *excluded* tuple expiring
// first still has to shrink the answer.
func TestNegateNonMemberW1ExpiryShrinksQuota(t *testing.T) {
	n := newTestNegate(t)
	mustProcess(t, n, 1, ip(1, 300, 5), 1) // hold v2=1 for a long time
	// a arrives: v1=1, v2=1 → excluded.
	if out := mustProcess(t, n, 0, ip(2, 10, 5), 2); len(out) != 0 {
		t.Fatalf("a should be excluded: %v", out)
	}
	// b arrives: v1=2, v2=1 → b admitted.
	out := mustProcess(t, n, 0, ip(3, 103, 5), 3)
	if len(out) != 1 || out[0].Neg {
		t.Fatalf("b should be admitted: %v", out)
	}
	// a (excluded) expires at 10: quota drops to 0, so b must be retracted
	// prematurely even though its own window life runs to 103.
	out = mustAdvance(t, n, 10)
	if len(out) != 1 || !out[0].Neg || !out[0].Vals[0].Identical(tuple.Int(5)) {
		t.Fatalf("quota shrink must retract b: %v", out)
	}
}

func TestNegateOldestRetractedFirst(t *testing.T) {
	n := newTestNegate(t)
	mustProcess(t, n, 0, ip(1, 101, 5), 1) // a admitted
	mustProcess(t, n, 0, ip(2, 102, 5), 2) // b admitted
	out := mustProcess(t, n, 1, ip(3, 103, 5), 3)
	// One must go; the paper deletes the oldest (a, exp 101).
	if len(out) != 1 || !out[0].Neg || out[0].Exp != 101 {
		t.Fatalf("oldest first: %v", out)
	}
}

func TestNegateYoungestReadmittedFirst(t *testing.T) {
	n := newTestNegate(t)
	mustProcess(t, n, 1, ip(1, 50, 5), 1)  // v2=1 until 50
	mustProcess(t, n, 1, ip(2, 60, 5), 2)  // v2=2 until 60
	mustProcess(t, n, 0, ip(3, 103, 5), 3) // excluded
	mustProcess(t, n, 0, ip(4, 104, 5), 4) // excluded
	out := mustAdvance(t, n, 50)           // one W2 copy expires
	// The paper appends the youngest W1 tuple (exp 104).
	if len(out) != 1 || out[0].Neg || out[0].Exp != 104 {
		t.Fatalf("youngest first: %v", out)
	}
	out = mustAdvance(t, n, 60)
	if len(out) != 1 || out[0].Neg || out[0].Exp != 103 {
		t.Fatalf("second re-admit: %v", out)
	}
}

func TestNegateDisjointValuesNeverRetract(t *testing.T) {
	n := newTestNegate(t)
	for i := int64(0); i < 50; i++ {
		mustProcess(t, n, 0, ip(i, i+100, i), i)      // values 0..49
		mustProcess(t, n, 1, ip(i, i+100, 1000+i), i) // values 1000..1049
	}
	if n.PrematureRetractions() != 0 {
		t.Errorf("disjoint inputs must not retract (Section 5.3.2): %d", n.PrematureRetractions())
	}
}

func TestNegateNegativeArrivals(t *testing.T) {
	n := newTestNegate(t)
	a := ip(1, 101, 5)
	mustProcess(t, n, 0, a, 1) // admitted
	// Retraction of the admitted W1 tuple propagates.
	out := mustProcess(t, n, 0, a.Negative(2), 2)
	if len(out) != 1 || !out[0].Neg {
		t.Fatalf("W1 retraction: %v", out)
	}
	// W2 retraction restores a later W1 tuple.
	b := ip(3, 103, 7)
	w2 := ip(4, 104, 7)
	mustProcess(t, n, 0, b, 3)  // admitted
	mustProcess(t, n, 1, w2, 4) // retracts b
	out = mustProcess(t, n, 1, w2.Negative(5), 5)
	if len(out) != 1 || out[0].Neg || !out[0].Vals[0].Identical(tuple.Int(7)) {
		t.Fatalf("W2 retraction re-admits: %v", out)
	}
	// Unknown retractions are absorbed.
	if out := mustProcess(t, n, 0, ip(0, 0, 99).Negative(6), 6); len(out) != 0 {
		t.Fatalf("unknown W1 retraction: %v", out)
	}
	if out := mustProcess(t, n, 1, ip(0, 0, 99).Negative(7), 7); len(out) != 0 {
		t.Fatalf("unknown W2 retraction: %v", out)
	}
}

func TestNegateTwinsWithDifferentExpirations(t *testing.T) {
	n := newTestNegate(t)
	mustProcess(t, n, 1, ip(1, 10, 5), 1)  // short-lived W2 copy
	mustProcess(t, n, 1, ip(2, 200, 5), 2) // long-lived W2 twin
	mustProcess(t, n, 0, ip(3, 150, 5), 3) // excluded (v2=2)
	// At 10 the short twin dies: v1=1, v2=1 → still excluded.
	if out := mustAdvance(t, n, 10); len(out) != 0 {
		t.Fatalf("still excluded: %v", out)
	}
	// Long twin must still be counted at 100.
	if out := mustAdvance(t, n, 100); len(out) != 0 {
		t.Fatalf("long twin lost: %v", out)
	}
	// The live W1 and W2 tuples each count once in their window state and
	// once in the expiration calendar tracking them.
	if n.StateSize() != 4 {
		t.Errorf("StateSize = %d", n.StateSize())
	}
}

func TestNegateValidation(t *testing.T) {
	if _, err := NewNegate(NegateConfig{Left: ipSchema1(), Right: ipSchema1()}); err == nil {
		t.Error("empty cols accepted")
	}
	if _, err := NewNegate(NegateConfig{Left: ipSchema1(), Right: ipSchema1(), LeftCols: []int{9}, RightCols: []int{0}}); err == nil {
		t.Error("bad left col accepted")
	}
	if _, err := NewNegate(NegateConfig{Left: ipSchema1(), Right: ipSchema1(), LeftCols: []int{0}, RightCols: []int{9}}); err == nil {
		t.Error("bad right col accepted")
	}
	n := newTestNegate(t)
	if _, err := processTuple(n, 2, ip(1, 101, 5), 1); err == nil {
		t.Error("bad side accepted")
	}
}
