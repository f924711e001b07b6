package operator

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/tuple"
)

func newTestIntersect(t *testing.T) *Intersect {
	t.Helper()
	x, err := NewIntersect(IntersectConfig{Left: ipSchema1(), Right: ipSchema1(), Horizon: 200})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestIntersectEmitsOnMatch(t *testing.T) {
	x := newTestIntersect(t)
	if x.Class() != core.OpIntersect {
		t.Error("class wrong")
	}
	if out := mustProcess(t, x, 0, ip(1, 101, 5), 1); len(out) != 0 {
		t.Fatalf("no counterpart yet: %v", out)
	}
	out := mustProcess(t, x, 1, ip(2, 102, 5), 2)
	if len(out) != 1 || out[0].Neg || !out[0].Vals[0].Identical(tuple.Int(5)) {
		t.Fatalf("match: %v", out)
	}
	// Result expires with the earlier support.
	if out[0].Exp != 101 {
		t.Errorf("result exp = %d, want 101", out[0].Exp)
	}
	// Multiset semantics: min(2,1) = 1 → a second left copy adds nothing.
	if out := mustProcess(t, x, 0, ip(3, 103, 5), 3); len(out) != 0 {
		t.Fatalf("min(v1,v2) exceeded: %v", out)
	}
	// …until the right side catches up.
	if out := mustProcess(t, x, 1, ip(4, 104, 5), 4); len(out) != 1 {
		t.Fatalf("second pair: %v", out)
	}
	if x.StateSize() != 4 {
		t.Errorf("StateSize = %d", x.StateSize())
	}
}

func TestIntersectReplacementOnSupportExpiry(t *testing.T) {
	x := newTestIntersect(t)
	mustProcess(t, x, 0, ip(1, 10, 5), 1)  // short-lived left
	mustProcess(t, x, 0, ip(2, 100, 5), 2) // long-lived left (unpaired)
	out := mustProcess(t, x, 1, ip(3, 150, 5), 3)
	// Pairs with the longest-lived left copy (exp 100).
	if len(out) != 1 || out[0].Exp != 100 {
		t.Fatalf("longest-lived pairing: %v", out)
	}
	// At 10 the short left copy (unpaired) expires silently.
	if out := mustAdvance(t, x, 10); len(out) != 0 {
		t.Fatalf("unpaired expiry must be silent: %v", out)
	}
	// At 100 the paired left copy expires; no left copies remain → no
	// replacement, result left via its own exp.
	if out := mustAdvance(t, x, 100); len(out) != 0 {
		t.Fatalf("no replacement available: %v", out)
	}
}

func TestIntersectRepairsAfterExpiry(t *testing.T) {
	x := newTestIntersect(t)
	mustProcess(t, x, 0, ip(1, 50, 5), 1)
	out := mustProcess(t, x, 1, ip(2, 200, 5), 2) // pair, result exp 50
	if len(out) != 1 || out[0].Exp != 50 {
		t.Fatalf("pair: %v", out)
	}
	mustProcess(t, x, 0, ip(3, 150, 5), 3) // second left copy, unpaired
	// At 50 the paired left dies; the right support re-pairs with the
	// surviving left copy, emitting a replacement with exp 150.
	out = mustAdvance(t, x, 50)
	if len(out) != 1 || out[0].Neg || out[0].Exp != 150 || out[0].TS != 50 {
		t.Fatalf("re-pair: %v", out)
	}
}

func TestIntersectNegativeArrivals(t *testing.T) {
	x := newTestIntersect(t)
	l := ip(1, 101, 5)
	mustProcess(t, x, 0, l, 1)
	mustProcess(t, x, 1, ip(2, 102, 5), 2) // result emitted
	// Retract the left support: the result must be retracted.
	out := mustProcess(t, x, 0, l.Negative(3), 3)
	if len(out) != 1 || !out[0].Neg {
		t.Fatalf("paired retraction: %v", out)
	}
	// Retract the right support too (now unpaired): silent.
	out = mustProcess(t, x, 1, ip(2, 102, 5).Negative(4), 4)
	if len(out) != 0 {
		t.Fatalf("unpaired retraction must be silent: %v", out)
	}
	if x.StateSize() != 0 {
		t.Errorf("StateSize = %d", x.StateSize())
	}
	// Unknown retraction absorbed.
	if out := mustProcess(t, x, 0, ip(0, 0, 9).Negative(5), 5); len(out) != 0 {
		t.Fatalf("unknown retraction: %v", out)
	}
}

func TestIntersectRetractionTriggersReplacement(t *testing.T) {
	x := newTestIntersect(t)
	a := ip(1, 101, 5)
	mustProcess(t, x, 0, a, 1)
	mustProcess(t, x, 0, ip(2, 102, 5), 2) // spare left copy
	mustProcess(t, x, 1, ip(3, 103, 5), 3) // pairs with the spare? (max exp: 102)
	// Retract the paired left support (exp 102 was chosen): replacement
	// re-pairs with the remaining copy.
	out := mustProcess(t, x, 0, ip(2, 102, 5).Negative(4), 4)
	if len(out) != 2 || !out[0].Neg || out[1].Neg || out[1].Exp != 101 {
		t.Fatalf("retraction with replacement: %v", out)
	}
}

func TestIntersectValidation(t *testing.T) {
	other := tuple.MustSchema(tuple.Column{Name: "x", Kind: tuple.KindString})
	if _, err := NewIntersect(IntersectConfig{Left: ipSchema1(), Right: other, Horizon: 100}); err == nil {
		t.Error("layout mismatch accepted")
	}
	x := newTestIntersect(t)
	if _, err := processTuple(x, 2, ip(1, 101, 5), 1); err == nil {
		t.Error("bad side accepted")
	}
	if x.Touched() != 0 {
		t.Error("fresh operator touched")
	}
}

// TestIntersectNTFilesNothing: without time expiry nothing ever fires a
// calendar, so an NT intersection must not file its supports in one. After
// 1 000 insert/retract pairs the state is empty, and so is the checkpoint
// but for its counters; filing every support would have left all 1 000 in
// the calendars and in every checkpoint.
func TestIntersectNTFilesNothing(t *testing.T) {
	x, err := NewIntersect(IntersectConfig{Left: ipSchema1(), Right: ipSchema1(), Horizon: 100, NoTimeExpiry: true})
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		var buf bytes.Buffer
		if err := x.SaveState(checkpoint.NewEncoder(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	empty := size()
	for i := int64(0); i < 1000; i++ {
		tp := ip(i, i+100, i%7)
		mustProcess(t, x, int(i%2), tp, i)
		mustProcess(t, x, int(i%2), tp.Negative(i), i)
	}
	if n := x.StateSize(); n != 0 {
		t.Fatalf("StateSize = %d after every support was retracted", n)
	}
	if got := size(); got > empty+8 {
		t.Errorf("SaveState writes %d bytes, %d when fresh: retracted supports are still filed", got, empty)
	}
}
