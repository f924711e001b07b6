package plan

import (
	"testing"

	"repro/internal/operator"
	"repro/internal/tuple"
)

func q1Plan(size int64, proto string) *Node {
	sel := func(id int) *Node {
		return NewSelect(win(id, size), operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_(proto)})
	}
	return NewJoin(sel(0), sel(1), []int{0}, []int{0})
}

func TestStrategyNames(t *testing.T) {
	if NT.String() != "NT" || Direct.String() != "DIRECT" || UPA.String() != "UPA" {
		t.Error("strategy names")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy name")
	}
}

func TestCostPositiveAndFinite(t *testing.T) {
	n := mustAnnotate(t, q1Plan(1000, "ftp"))
	for _, s := range []Strategy{NT, Direct, UPA} {
		c := Cost(n, s)
		if c <= 0 || c != c /* NaN */ {
			t.Errorf("%v cost = %v", s, c)
		}
	}
}

// TestCostUPADominates asserts the headline cost-model ranking: for the
// paper's query shapes, UPA is never costlier than DIRECT, and the DIRECT
// penalty grows with window size (the sequential-scan term).
func TestCostUPADominates(t *testing.T) {
	for _, size := range []int64{1000, 10000, 100000} {
		n := mustAnnotate(t, q1Plan(size, "ftp"))
		upa, direct := Cost(n, UPA), Cost(n, Direct)
		if upa > direct {
			t.Errorf("size %d: UPA %v > DIRECT %v", size, upa, direct)
		}
	}
	small := Cost(mustAnnotate(t, q1Plan(1000, "ftp")), Direct) / Cost(mustAnnotate(t, q1Plan(1000, "ftp")), UPA)
	big := Cost(mustAnnotate(t, q1Plan(100000, "ftp")), Direct) / Cost(mustAnnotate(t, q1Plan(100000, "ftp")), UPA)
	if big <= small {
		t.Errorf("DIRECT/UPA ratio must grow with window size: %v -> %v", small, big)
	}
}

func TestCostNTProcessingDoubling(t *testing.T) {
	// Stateless chains: NT costs twice the tuple processing of DIRECT, plus
	// window maintenance (Section 2.3.1).
	n := mustAnnotate(t, NewSelect(win(0, 1000), operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")}))
	nt, direct := Cost(n, NT), Cost(n, Direct)
	if nt < 2*direct {
		t.Errorf("NT %v should at least double DIRECT %v on stateless plans", nt, direct)
	}
}

func TestCostDeltaBeatsLiteratureDistinct(t *testing.T) {
	n := mustAnnotate(t, NewDistinct(NewProject(win(0, 10000), 0)))
	if upa, direct := Cost(n, UPA), Cost(n, Direct); upa >= direct {
		t.Errorf("δ (UPA %v) must beat the literature distinct (DIRECT %v)", upa, direct)
	}
}

func TestCostGroupByModel(t *testing.T) {
	// Section 5.4.1: group-by costs 2λC whatever the strategy.
	n := mustAnnotate(t, NewGroupBy(win(0, 1000), []int{1}, operator.AggSpec{Kind: operator.Count}))
	nt := Cost(n, NT) - nodeSourceCost(n, NT)
	direct := Cost(n, Direct) - nodeSourceCost(n, Direct)
	if nt != direct {
		t.Errorf("group-by operator cost must be strategy-independent: NT %v vs DIRECT %v", nt, direct)
	}
}

// nodeSourceCost isolates the source (window maintenance) component.
func nodeSourceCost(n *Node, s Strategy) float64 {
	total := 0.0
	var walk func(m *Node)
	walk = func(m *Node) {
		if m.Kind == Source {
			total += nodeCost(m, s)
		}
		for _, in := range m.Inputs {
			walk(in)
		}
	}
	walk(n)
	return total
}

func TestCostNegationUsesDistincts(t *testing.T) {
	n := mustAnnotate(t, NewNegate(win(0, 1000), win(1, 1000), []int{0}, []int{0}))
	if c := Cost(n, UPA); c <= 0 {
		t.Errorf("negation cost = %v", c)
	}
}

func TestOverlapFraction(t *testing.T) {
	l := &Node{Est: Estimates{Distinct: 100}}
	r := &Node{Est: Estimates{Distinct: 100}}
	if f := overlapFraction(l, r); f != 1 {
		t.Errorf("same domains should overlap fully: %v", f)
	}
	r.Est.Distinct = 10
	if f := overlapFraction(l, r); f != 0.1 {
		t.Errorf("overlap: %v", f)
	}
}

// TestProbeCostByStrategy pins what a probe is charged: one key's bucket
// under NT (hash) and UPA (indexed FIFO, keyed calendar), the whole side
// under DIRECT (list scan) — and with it the ranking E8 measures on Query 1,
// which the model missed while it charged UPA the scan.
func TestProbeCostByStrategy(t *testing.T) {
	n := mustAnnotate(t, q1Plan(10000, "ftp"))
	side := n.Inputs[0]
	if upa, nt := probeCost(side, UPA), probeCost(side, NT); upa != nt {
		t.Errorf("UPA probe %v, NT probe %v: both probe a bucket", upa, nt)
	}
	if direct, upa := probeCost(side, Direct), probeCost(side, UPA); direct <= upa {
		t.Errorf("DIRECT probe %v must exceed UPA's bucket %v", direct, upa)
	}
	if upa, nt, direct := Cost(n, UPA), Cost(n, NT), Cost(n, Direct); !(upa < nt && nt < direct) {
		t.Errorf("Query 1 ranking: UPA %v, NT %v, DIRECT %v; want UPA < NT < DIRECT", upa, nt, direct)
	}
}
