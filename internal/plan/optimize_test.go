package plan

import (
	"strings"
	"testing"

	"repro/internal/operator"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

func ftpSel(in *Node) *Node {
	return NewSelect(in, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
}

func TestRewritesIncludeOriginal(t *testing.T) {
	p := q1Plan(100, "ftp")
	rs := Rewrites(p)
	if len(rs) == 0 {
		t.Fatal("no rewrites")
	}
	if shapeKey(rs[0]) != shapeKey(p) {
		t.Error("first rewrite must be the original")
	}
}

func TestSelectionPushdownRewrite(t *testing.T) {
	// σ over a join with a left-side predicate must generate the pushed
	// variant.
	j := NewJoin(win(0, 100), win(1, 100), []int{0}, []int{0})
	p := ftpSel(j)
	rs := Rewrites(p)
	found := false
	for _, r := range rs {
		if r.Kind == Join && r.Inputs[0].Kind == Select {
			found = true
		}
	}
	if !found {
		t.Error("selection push-down variant missing")
	}
}

// ftpKeys is the joined side the negation rewrites need: the distinct ftp
// keys of stream 2, one live tuple per key.
func ftpKeys(size int64) *Node { return NewDistinct(NewProject(ftpSel(win(2, size)), 0)) }

func TestNegationPullUpAndPushDownAreInverse(t *testing.T) {
	// Start from the push-down shape of Figure 6 over a key-only Distinct
	// and expect the pull-up shape among rewrites, and vice versa.
	pushDown := NewJoin(NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}), ftpKeys(100), []int{0}, []int{0})
	foundPullUp := false
	for _, r := range Rewrites(pushDown) {
		if r.Kind == Negate && r.Inputs[0].Kind == Join {
			foundPullUp = true
		}
	}
	if !foundPullUp {
		t.Error("negation pull-up variant missing")
	}
	pullUp := NewNegate(NewJoin(win(0, 100), ftpKeys(100), []int{0}, []int{0}), win(1, 100), []int{0}, []int{0})
	foundPushDown := false
	for _, r := range Rewrites(pullUp) {
		if r.Kind == Join && r.Inputs[0].Kind == Negate {
			foundPushDown = true
		}
	}
	if !foundPushDown {
		t.Error("negation push-down variant missing")
	}
}

func TestDistinctPushdownRewrite(t *testing.T) {
	// distinct over a join on the full columns of both sides.
	a := NewProject(win(0, 100), 0)
	b := NewProject(win(1, 100), 0)
	p := NewDistinct(NewJoin(a, b, []int{0}, []int{0}))
	if err := Annotate(p, DefaultStats()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range Rewrites(p) {
		if r.Kind == Join && r.Inputs[0].Kind == Distinct && r.Inputs[1].Kind == Distinct {
			found = true
		}
	}
	if !found {
		t.Error("distinct push-below-join variant missing")
	}
}

func TestOptimizeReturnsValidCheapestPlan(t *testing.T) {
	pushDown := NewJoin(NewNegate(win(0, 10000), win(1, 10000), []int{0}, []int{0}), ftpSel(win(2, 10000)), []int{0}, []int{0})
	best, err := Optimize(pushDown, UPA, DefaultStats())
	if err != nil {
		t.Fatal(err)
	}
	if best.Schema == nil {
		t.Fatal("optimized plan not annotated")
	}
	if err := Annotate(pushDown.Clone(), DefaultStats()); err != nil {
		t.Fatal(err)
	}
	orig := pushDown.Clone()
	if err := Annotate(orig, DefaultStats()); err != nil {
		t.Fatal(err)
	}
	if Cost(best, UPA) > Cost(orig, UPA) {
		t.Errorf("optimizer chose costlier plan: %v > %v", Cost(best, UPA), Cost(orig, UPA))
	}
}

// TestOptimizeKeepsPlainQ5Shapes: when the joined stream may hold several
// live tuples per key, the two Figure 6 forms count different multiplicities
// under multiset negation, so neither is rewritten into the other.
func TestOptimizeKeepsPlainQ5Shapes(t *testing.T) {
	pushDown := NewJoin(NewNegate(win(0, 10000), win(1, 10000), []int{0}, []int{0}),
		ftpSel(win(2, 10000)), []int{0}, []int{0})
	pullUp := NewNegate(NewJoin(win(0, 10000), ftpSel(win(2, 10000)), []int{0}, []int{0}),
		win(1, 10000), []int{0}, []int{0})
	for _, p := range []*Node{pushDown, pullUp} {
		for _, r := range Rewrites(p) {
			if r.Kind != p.Kind {
				t.Errorf("plain Q5 %v rewritten to:\n%s", p.Kind, r)
			}
		}
		best, err := Optimize(p, UPA, DefaultStats())
		if err != nil {
			t.Fatal(err)
		}
		if shapeKey(best) != shapeKey(p) {
			t.Errorf("optimizer changed plain Q5 %v to:\n%s", p.Kind, best)
		}
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	p := q1Plan(100, "ftp")
	before := shapeKey(p)
	if _, err := Optimize(p, UPA, DefaultStats()); err != nil {
		t.Fatal(err)
	}
	if shapeKey(p) != before {
		t.Error("Optimize mutated its input plan")
	}
}

func TestOptimizeInvalidPlan(t *testing.T) {
	bad := NewSelect(win(0, 10), nil)
	if _, err := Optimize(bad, UPA, DefaultStats()); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestShapeKeyDistinguishesPlans(t *testing.T) {
	a := shapeKey(q1Plan(100, "ftp"))
	b := shapeKey(q1Plan(100, "telnet"))
	if a == b {
		t.Error("shape keys must include predicates")
	}
	if !strings.Contains(a, "join") {
		t.Errorf("shape key: %q", a)
	}
}

func TestOptimizeRespectsRelJoinConstraint(t *testing.T) {
	// A rewrite that would push a relation join below a negation (or
	// equivalently pull negation above ⋈NRR) must be discarded because
	// Annotate enforces the Section 5.4.2 constraint. Construct a plan
	// where the constraint would bite: join(negate(A,B), C) where C is
	// fine, then hang an NRR join above — Optimize must still return a
	// valid plan equal in answer.
	tbl := relation.NewNRR("t", tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt}))
	inner := NewJoin(NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}), ftpSel(win(2, 100)), []int{0}, []int{0})
	_ = inner
	// Direct check: a plan with ⋈NRR over STR input never annotates, so it
	// can never be selected.
	bad := NewNRRJoin(NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}), tbl, []int{0}, []int{0})
	if err := Annotate(bad, DefaultStats()); err == nil {
		t.Fatal("constraint not enforced")
	}
	// And Optimize over a valid NRR plan returns a valid plan.
	ok := NewNRRJoin(win(0, 100), tbl, []int{0}, []int{0})
	best, err := Optimize(ok, UPA, DefaultStats())
	if err != nil {
		t.Fatal(err)
	}
	if best.Kind != NRRJoin {
		t.Errorf("optimized: %v", best.Kind)
	}
}

func TestCostRelationJoins(t *testing.T) {
	tbl := relation.NewNRR("t", tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt}))
	nrr := mustAnnotate(t, NewNRRJoin(win(0, 1000), tbl, []int{0}, []int{0}))
	if c := Cost(nrr, UPA); c <= 0 {
		t.Errorf("NRR join cost = %v", c)
	}
	rel := relation.NewRelation("r", tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt}))
	rj := mustAnnotate(t, NewRelJoin(win(0, 1000), rel, []int{0}, []int{0}))
	if Cost(rj, UPA) <= Cost(nrr, UPA) {
		t.Error("retroactive join should cost more than NRR join")
	}
	// NT doubles relation-join processing too.
	if Cost(rj, NT) <= Cost(rj, Direct) {
		t.Error("NT must cost more than DIRECT for ⋈R")
	}
}

func TestCostMonotonicViewIsCheap(t *testing.T) {
	mono := mustAnnotate(t, NewSelect(NewSource(0, window.Unbounded, linkSchema()), operator.True{}))
	str := mustAnnotate(t, NewNegate(win(0, 1000), win(1, 1000), []int{0}, []int{0}))
	if viewCost(mono, UPA) >= viewCost(str, UPA) {
		t.Error("append-only views must be cheaper than strict views")
	}
}
