package operator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

func ipSchema1() *tuple.Schema {
	return tuple.MustSchema(tuple.Column{Name: "src", Kind: tuple.KindInt})
}

func ip(ts, exp int64, v int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{tuple.Int(v)}}
}

// distinctImpls builds both duplicate-elimination implementations so shared
// behaviour tests run over each; δ must agree with the literature version on
// every WKS/WK input.
func distinctImpls(horizon int64) map[string]Operator {
	return map[string]Operator{
		"literature-list": NewDistinct(DistinctConfig{Schema: ipSchema1(), InputBuf: statebuf.Config{Kind: statebuf.KindList}, RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: horizon}, TimeExpiry: true}),
		"literature-hash": NewDistinct(DistinctConfig{Schema: ipSchema1(), InputBuf: statebuf.Config{Kind: statebuf.KindHash}, RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: horizon}, TimeExpiry: true}),
		"delta":           NewDistinctDelta(ipSchema1(), horizon, 0),
	}
}

func TestDistinctEmitsOncePerValue(t *testing.T) {
	for name, d := range distinctImpls(100) {
		t.Run(name, func(t *testing.T) {
			if d.Class() != core.OpDistinct {
				t.Error("class wrong")
			}
			if out := mustProcess(t, d, 0, ip(1, 101, 5), 1); len(out) != 1 {
				t.Fatalf("first value must emit: %v", out)
			}
			if out := mustProcess(t, d, 0, ip(2, 102, 5), 2); len(out) != 0 {
				t.Fatalf("duplicate must not emit: %v", out)
			}
			if out := mustProcess(t, d, 0, ip(3, 103, 6), 3); len(out) != 1 {
				t.Fatalf("new value must emit: %v", out)
			}
			if _, err := processTuple(d, 1, ip(4, 104, 7), 4); err == nil {
				t.Error("bad side accepted")
			}
		})
	}
}

// TestDistinctReplacementFigure2 replays the scenario of Figure 2: when the
// representative with value x expires, a younger x-tuple that is still live
// replaces it on the output stream.
func TestDistinctReplacementFigure2(t *testing.T) {
	for name, d := range distinctImpls(100) {
		t.Run(name, func(t *testing.T) {
			mustProcess(t, d, 0, ip(1, 10, 42), 1) // rep for 42, expires at 10
			mustProcess(t, d, 0, ip(5, 14, 42), 5) // younger duplicate
			mustProcess(t, d, 0, ip(6, 15, 99), 6) // other value
			out := mustAdvance(t, d, 10)           // rep(42) expires
			if len(out) != 1 {
				t.Fatalf("expected replacement, got %v", out)
			}
			r := out[0]
			if r.Neg || !r.Vals[0].Identical(tuple.Int(42)) || r.Exp != 14 || r.TS != 10 {
				t.Errorf("replacement = %v, want +42 exp 14 at ts 10", r)
			}
			// When the replacement expires with no further duplicates, the
			// value silently leaves (its exp retires it downstream).
			if out := mustAdvance(t, d, 14); len(out) != 0 {
				t.Errorf("no live duplicate: %v", out)
			}
			// 99 still live until 15.
			if out := mustAdvance(t, d, 20); len(out) != 0 {
				t.Errorf("unexpected emissions: %v", out)
			}
			if d.StateSize() != 0 {
				t.Errorf("state not drained: %d", d.StateSize())
			}
		})
	}
}

func TestDistinctPicksLongestLivedReplacement(t *testing.T) {
	for name, d := range distinctImpls(100) {
		t.Run(name, func(t *testing.T) {
			mustProcess(t, d, 0, ip(1, 10, 7), 1)
			mustProcess(t, d, 0, ip(2, 30, 7), 2) // longest-lived duplicate
			mustProcess(t, d, 0, ip(3, 20, 7), 3)
			out := mustAdvance(t, d, 10)
			if len(out) != 1 || out[0].Exp != 30 {
				t.Fatalf("%s: replacement should carry exp 30, got %v", name, out)
			}
		})
	}
}

func TestDistinctValueReappearsAfterGap(t *testing.T) {
	for name, d := range distinctImpls(100) {
		t.Run(name, func(t *testing.T) {
			mustProcess(t, d, 0, ip(1, 10, 5), 1)
			mustAdvance(t, d, 10) // value 5 fully gone
			out := mustProcess(t, d, 0, ip(20, 70, 5), 20)
			if len(out) != 1 || out[0].Neg {
				t.Fatalf("%s: reappearing value must emit: %v", name, out)
			}
		})
	}
}

func TestDistinctChainedReplacements(t *testing.T) {
	// rep expires, aux promoted; promoted rep expires, but a duplicate that
	// arrived after promotion replaces it again.
	for name, d := range distinctImpls(200) {
		t.Run(name, func(t *testing.T) {
			mustProcess(t, d, 0, ip(1, 10, 5), 1)
			mustProcess(t, d, 0, ip(2, 20, 5), 2)
			out := mustAdvance(t, d, 10)
			if len(out) != 1 || out[0].Exp != 20 {
				t.Fatalf("first replacement: %v", out)
			}
			mustProcess(t, d, 0, ip(12, 40, 5), 12) // duplicate of promoted rep
			out = mustAdvance(t, d, 20)
			if len(out) != 1 || out[0].Exp != 40 {
				t.Fatalf("%s: second replacement: %v", name, out)
			}
		})
	}
}

// TestDistinctNegativeArrivals exercises the literature implementation's
// retraction path (δ never sees negatives; the planner guarantees it).
func TestDistinctNegativeArrivals(t *testing.T) {
	d := NewDistinct(DistinctConfig{Schema: ipSchema1(), InputBuf: statebuf.Config{Kind: statebuf.KindHash}, RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 100}, TimeExpiry: true})
	a := ip(1, 102, 5) // rep, the longer-lived support
	b := ip(2, 101, 5) // shorter-lived duplicate
	mustProcess(t, d, 0, a, 1)
	mustProcess(t, d, 0, b, 2)
	// Retract the rep's support: rep must be re-emitted with the shorter
	// expiration of the surviving duplicate.
	out := mustProcess(t, d, 0, a.Negative(3), 3)
	if len(out) != 2 || !out[0].Neg || out[1].Neg || out[1].Exp != 101 {
		t.Fatalf("support shrink: %v", out)
	}
	// Retract the remaining tuple: the value disappears with a retraction.
	out = mustProcess(t, d, 0, b.Negative(4), 4)
	if len(out) != 1 || !out[0].Neg {
		t.Fatalf("last support retraction: %v", out)
	}
	// Retraction of an unknown tuple is a no-op.
	if out := mustProcess(t, d, 0, ip(0, 0, 99).Negative(5), 5); len(out) != 0 {
		t.Errorf("unknown retraction emitted: %v", out)
	}
}

func TestDistinctNegativeKeepsRepWhenDuplicatesCover(t *testing.T) {
	d := NewDistinct(DistinctConfig{Schema: ipSchema1(), InputBuf: statebuf.Config{Kind: statebuf.KindHash}, RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 100}, TimeExpiry: true})
	a := ip(1, 102, 5) // rep support
	b := ip(2, 101, 5) // shorter-lived duplicate
	mustProcess(t, d, 0, a, 1)
	mustProcess(t, d, 0, b, 2)
	// Retracting the shorter-lived duplicate changes nothing.
	if out := mustProcess(t, d, 0, b.Negative(3), 3); len(out) != 0 {
		t.Errorf("covered retraction emitted: %v", out)
	}
}

func TestDistinctDeltaRejectsNegatives(t *testing.T) {
	d := NewDistinctDelta(ipSchema1(), 100, 0)
	mustProcess(t, d, 0, ip(1, 101, 5), 1)
	if _, err := processTuple(d, 0, ip(1, 101, 5).Negative(2), 2); err == nil {
		t.Error("δ must reject negative tuples (planner bug guard)")
	}
}

// TestDeltaSpaceBound verifies Section 5.3.1's claim: δ stores at most twice
// the output size, while the literature version stores the whole input.
func TestDeltaSpaceBound(t *testing.T) {
	lit := NewDistinct(DistinctConfig{Schema: ipSchema1(), InputBuf: statebuf.Config{Kind: statebuf.KindList}, RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 1000}, TimeExpiry: true})
	delta := NewDistinctDelta(ipSchema1(), 1000, 0)
	const n = 200
	for i := int64(0); i < n; i++ {
		v := i % 4 // only four distinct values
		mustProcess(t, lit, 0, ip(i, i+1000, v), i)
		mustProcess(t, delta, 0, ip(i, i+1000, v), i)
	}
	if lit.StateSize() < n {
		t.Errorf("literature impl should store the input: %d", lit.StateSize())
	}
	// 4 reps + ≤4 aux (the paper's 2×output bound on stored tuples), plus the
	// 4 expiry-calendar entries StateSize now counts as footprint.
	if delta.StateSize() > 12 {
		t.Errorf("δ must store at most 2×output (+calendar): %d", delta.StateSize())
	}
}

func TestDeltaIgnoresShortLivedDuplicates(t *testing.T) {
	d := NewDistinctDelta(ipSchema1(), 100, 0)
	mustProcess(t, d, 0, ip(1, 50, 5), 1)
	// Duplicate that expires before the rep: useless as a replacement.
	mustProcess(t, d, 0, ip(2, 30, 5), 2)
	if d.StateSize() != 2 { // the rep and its expiry-calendar entry
		t.Errorf("short-lived duplicate stored: %d", d.StateSize())
	}
	if out := mustAdvance(t, d, 50); len(out) != 0 {
		t.Errorf("nothing live to promote: %v", out)
	}
}

// TestDistinctImplsAgree drives identical WKS traffic through the literature
// implementation and δ, asserting identical emissions.
func TestDistinctImplsAgree(t *testing.T) {
	lit := NewDistinct(DistinctConfig{Schema: ipSchema1(), InputBuf: statebuf.Config{Kind: statebuf.KindList}, RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 50}, TimeExpiry: true})
	delta := NewDistinctDelta(ipSchema1(), 50, 0)
	render := func(ts []tuple.Tuple) []string {
		out := make([]string, len(ts))
		for i, tp := range ts {
			out[i] = tp.String()
		}
		return out
	}
	for ts := int64(0); ts < 300; ts++ {
		tp := ip(ts, ts+50, ts%7%3) // heavy duplication
		a := mustProcess(t, lit, 0, tp, ts)
		b := mustProcess(t, delta, 0, tp, ts)
		ra, rb := render(a), render(b)
		if len(ra) != len(rb) {
			t.Fatalf("ts %d: %v vs %v", ts, ra, rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("ts %d: %v vs %v", ts, ra, rb)
			}
		}
	}
}
