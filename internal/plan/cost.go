package plan

import (
	"math"

	"repro/internal/core"
)

// Strategy selects one of the three execution techniques compared in
// Section 6.
type Strategy int

const (
	// NT is the negative-tuple approach (Section 2.3.1): every window is
	// materialized and every expiration generates an explicit negative
	// tuple that flows through the whole plan; state is hash-keyed.
	NT Strategy = iota
	// Direct is the direct approach (Section 2.3.2): expirations are found
	// via exp timestamps, but state lives in plain insertion-ordered lists,
	// so out-of-FIFO expiration needs sequential scans.
	Direct
	// UPA is the update-pattern-aware technique of Section 5: pattern-
	// matched state structures, the δ duplicate-elimination operator, and
	// the hybrid negative-tuple/direct split around negation.
	UPA
)

// String names the strategy as in the experiment tables.
func (s Strategy) String() string {
	switch s {
	case NT:
		return "NT"
	case Direct:
		return "DIRECT"
	case UPA:
		return "UPA"
	default:
		return "strategy?"
	}
}

// Cost returns the per-unit-time cost of the annotated plan under a
// strategy, per the model of Section 5.4.1: it sums, over all operators, the
// cost of inserting new tuples into state, processing them, expiring old
// tuples, and processing negative tuples where the strategy emits them, plus
// the cost of maintaining the materialized result view — the component the
// strategies differ on most (Section 2.3.3).
// Lower is better; the unit is "expected tuple touches per time unit".
func Cost(n *Node, s Strategy) float64 {
	return costTree(n, s) + viewCost(n, s)
}

func costTree(n *Node, s Strategy) float64 {
	total := nodeCost(n, s)
	for _, in := range n.Inputs {
		total += costTree(in, s)
	}
	return total
}

// viewCost models maintaining the materialized result: every result is
// inserted and eventually removed. Removal cost depends on the structure the
// strategy assigns: O(1) in a hash (NT) or FIFO (WKS root); a sequential
// scan of the whole view per expiration round in DIRECT's list when results
// expire out of order; only the due partitions under UPA.
func viewCost(root *Node, s Strategy) float64 {
	if root.Pattern == core.Monotonic {
		return root.Est.Rate // append-only
	}
	if root.Kind == GroupBy {
		// Keyed replacement view ("array indexed by group") under every
		// strategy: O(1) per emitted result.
		return 2 * root.Est.Rate
	}
	rate, size := root.Est.Rate, math.Max(root.Est.Size, 1)
	switch {
	case s == NT:
		return 2 * 2 * rate // every result and its negative twin, hashed
	case root.Pattern == core.Weakest:
		return 2 * rate // FIFO insert + pop (list behaves identically here)
	case s == Direct:
		return rate * size // scan the insertion-ordered list per expiration round
	default: // UPA partitioned (or hash for STR-frequent)
		const parts = 10.0
		return rate * (2 + 1/parts)
	}
}

func nodeCost(n *Node, s Strategy) float64 {
	// Under NT every tuple is eventually followed by its negative twin, so
	// each operator processes twice the tuples (Section 2.3.1), and window
	// leaves additionally maintain materialized window state.
	mult := 1.0
	if s == NT {
		mult = 2
	}
	switch n.Kind {
	case Source:
		if s == NT && !n.Window.IsUnbounded() {
			// Materialized window: insert + expire each tuple.
			return 2 * n.Est.Rate
		}
		return 0

	case Select, Project, Union:
		in := 0.0
		for _, i := range n.Inputs {
			in += i.Est.Rate
		}
		return mult * in // Σλi, constant per tuple

	case Join, Intersect:
		l, r := n.Inputs[0], n.Inputs[1]
		probes := l.Est.Rate*probeCost(r, s) + r.Est.Rate*probeCost(l, s)
		maint := maintCost(l, s) + maintCost(r, s)
		return mult * (probes + maint)

	case Distinct:
		in := n.Inputs[0]
		if s == UPA && in.Pattern <= core.Weak {
			// δ: every new tuple consults the stored output (λo·No/2).
			return n.Est.Rate * n.Est.Size / 2
		}
		// Literature version stores and scans the input.
		return mult * (in.Est.Rate*n.Est.Size/2 + maintCost(in, s) + in.Est.Rate*replCost(in, s))

	case GroupBy:
		in := n.Inputs[0]
		const aggRecompute = 1 // distributive aggregates, footnote 2
		return 2 * in.Est.Rate * aggRecompute

	case Negate:
		l, r := n.Inputs[0], n.Inputs[1]
		d1 := math.Max(l.Est.Distinct, 2)
		d2 := math.Max(r.Est.Distinct, 2)
		c := 2*l.Est.Rate*math.Log2(d1) + 2*r.Est.Rate*math.Log2(d2)
		// Premature expirations probe W1 and generate negative tuples.
		c += r.Est.Rate * overlapFraction(l, r)
		return mult * c

	case RelJoin, NRRJoin:
		in := n.Inputs[0]
		rows := math.Max(float64(n.Table.Len()), 1)
		probe := in.Est.Rate * math.Log2(math.Max(rows, 2))
		if n.Kind == RelJoin {
			// Table updates scan the stored window; charge a nominal
			// update rate of one per stream arrival period.
			probe += in.Est.Size / math.Max(in.Est.Distinct, 1)
		}
		return mult * probe

	default:
		return 0
	}
}

// probeCost estimates touching cost of one probe into a side's state. NT's
// hash, and under UPA the indexed FIFO and the keyed calendar, all probe one
// key's bucket; only DIRECT's list is scanned whole (Section 2.3.3).
func probeCost(side *Node, s Strategy) float64 {
	if s == Direct {
		return math.Max(side.Est.Size, 1)
	}
	return math.Max(side.Est.Size/math.Max(side.Est.Distinct, 1), 1)
}

// maintCost estimates per-unit-time state maintenance (insert + expire) of
// one stored input.
func maintCost(side *Node, s Strategy) float64 {
	switch {
	case s == NT:
		return 2 * side.Est.Rate // O(1) hash insert + O(1) negative removal
	case s == Direct && side.Pattern >= core.Weak:
		// Sequential scan per expiration round over the whole buffer.
		return side.Est.Rate * math.Max(side.Est.Size, 1)
	case s == UPA && side.Pattern >= core.Weak:
		// Partitioned buffer: only due partitions are touched.
		parts := 10.0
		return side.Est.Rate * (1 + math.Max(side.Est.Size, 1)/parts/math.Max(side.Est.Size, 1))
	default:
		return 2 * side.Est.Rate // FIFO
	}
}

// replCost estimates the replacement-scan cost duplicate elimination pays on
// each expiration of a representative (scanning the stored input).
func replCost(in *Node, s Strategy) float64 {
	if s == NT {
		return math.Max(in.Est.Size/math.Max(in.Est.Distinct, 1), 1)
	}
	return math.Max(in.Est.Size, 1)
}

// overlapFraction estimates how often negation inputs share attribute
// values — the premature-expiration frequency of Section 5.3.2. Without
// value-distribution knowledge both sides draw from their distinct domains;
// assume proportional overlap.
func overlapFraction(l, r *Node) float64 {
	d := math.Max(math.Max(l.Est.Distinct, r.Est.Distinct), 1)
	return math.Min(l.Est.Distinct, r.Est.Distinct) / d
}
