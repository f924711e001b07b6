package plan

import (
	"fmt"
	"sort"
)

// Optimize explores rewritings of the annotated plan using the
// update-pattern-aware heuristics of Section 5.4.2 — selection push-down,
// update-pattern simplification (negation pull-up), and duplicate-
// elimination push-below-join — costs every candidate under the given
// strategy, and returns the cheapest annotated plan. The constraint that
// relation joins never consume strict input is enforced by Annotate, so
// rewrites that would violate it are discarded.
func Optimize(root *Node, s Strategy, stats Stats) (*Node, error) {
	if root.Schema == nil {
		if err := Annotate(root, stats); err != nil {
			return nil, err
		}
	}
	candidates := Rewrites(root)
	type scored struct {
		n    *Node
		cost float64
	}
	var ok []scored
	for _, c := range candidates {
		if err := Annotate(c, stats); err != nil {
			continue // rewrite broke a constraint; drop it
		}
		ok = append(ok, scored{c, Cost(c, s)})
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("plan: no valid plan (original failed to annotate)")
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].cost < ok[j].cost })
	return ok[0].n, nil
}

// Rewrites returns the original plan plus every variant reachable by one or
// two applications of the rewrite rules (clones; inputs are not mutated).
func Rewrites(root *Node) []*Node {
	seen := map[string]bool{}
	var out []*Node
	add := func(n *Node) {
		key := shapeKey(n)
		if !seen[key] {
			seen[key] = true
			out = append(out, n)
		}
	}
	frontier := []*Node{root.Clone()}
	add(frontier[0])
	for depth := 0; depth < 2; depth++ {
		var next []*Node
		for _, n := range frontier {
			// Rewritten subtrees lack annotations, which some legality
			// checks need; refresh them (errors just stop this branch).
			if err := Annotate(n, DefaultStats()); err != nil {
				continue
			}
			for _, r := range rewriteOnce(n) {
				key := shapeKey(r)
				if !seen[key] {
					seen[key] = true
					out = append(out, r)
					next = append(next, r)
				}
			}
		}
		frontier = next
	}
	return out
}

// rewriteOnce applies each rule at each applicable position, returning the
// resulting plan clones.
func rewriteOnce(root *Node) []*Node {
	var out []*Node
	// Walk positions by path; rewrite on a fresh clone each time.
	var walk func(path []int)
	walk = func(path []int) {
		n := nodeAt(root, path)
		for _, rule := range rules {
			if rule.applies(n) {
				c := root.Clone()
				target := nodeAt(c, path)
				if nn := rule.apply(target); nn != nil {
					replaceAt(c, path, nn)
					out = append(out, c)
				}
			}
		}
		for i := range n.Inputs {
			walk(append(append([]int(nil), path...), i))
		}
	}
	walk(nil)
	return out
}

func nodeAt(root *Node, path []int) *Node {
	n := root
	for _, i := range path {
		n = n.Inputs[i]
	}
	return n
}

func replaceAt(root *Node, path []int, nn *Node) *Node {
	if len(path) == 0 {
		*root = *nn
		return root
	}
	parent := nodeAt(root, path[:len(path)-1])
	parent.Inputs[path[len(path)-1]] = nn
	return root
}

type rule struct {
	name    string
	applies func(n *Node) bool
	apply   func(n *Node) *Node
}

var rules = []rule{
	{
		// Selection push-down through a join, onto the side whose columns
		// the predicate references: σ(A ⋈ B) → σ(A) ⋈ B. Only predicates
		// expressed entirely over left-side columns move (right-side column
		// positions shift under Concat, so we keep it conservative).
		name: "select-pushdown",
		applies: func(n *Node) bool {
			if n.Kind != Select || len(n.Inputs) != 1 {
				return false
			}
			child := n.Inputs[0]
			if child.Kind != Join || child.Inputs[0].Schema == nil {
				return false
			}
			return n.Pred != nil && n.Pred.MaxCol() < child.Inputs[0].Schema.Len()
		},
		apply: func(n *Node) *Node {
			join := n.Inputs[0]
			join.Inputs[0] = NewSelect(join.Inputs[0], n.Pred)
			return join
		},
	},
	{
		// Update-pattern simplification / negation pull-up:
		// (A − B) ⋈ C → (A ⋈ C) − B, valid when the join key equals the
		// negation attribute on A's side (attribute positions survive) and
		// C holds at most one live tuple per key: negation here is on
		// multisets, so with a second C match per key the two forms of
		// Figure 6 count different multiplicities. A Distinct whose output
		// is exactly its join key guarantees that (see keyOnlyDistinct).
		// Pulling negation up minimizes the operators that see negative
		// tuples (Section 5.4.2).
		name: "negation-pullup",
		applies: func(n *Node) bool {
			return n.Kind == Join && n.Inputs[0].Kind == Negate &&
				equalInts(n.LeftCols, n.Inputs[0].LeftCols) &&
				keyOnlyDistinct(n.Inputs[1], n.RightCols)
		},
		apply: func(n *Node) *Node {
			neg := n.Inputs[0]
			join := NewJoin(neg.Inputs[0], n.Inputs[1], n.LeftCols, n.RightCols)
			join.Residual = n.Residual
			return NewNegate(join, neg.Inputs[1], neg.LeftCols, neg.RightCols)
		},
	},
	{
		// Negation push-down, the inverse: (A ⋈ C) − B → (A − B) ⋈ C when
		// the negation attribute lies in A's columns of the join, under the
		// same one-C-tuple-per-key condition.
		name: "negation-pushdown",
		applies: func(n *Node) bool {
			if n.Kind != Negate || n.Inputs[0].Kind != Join {
				return false
			}
			join := n.Inputs[0]
			return equalInts(n.LeftCols, join.LeftCols) &&
				keyOnlyDistinct(join.Inputs[1], join.RightCols)
		},
		apply: func(n *Node) *Node {
			join := n.Inputs[0]
			neg := NewNegate(join.Inputs[0], n.Inputs[1], n.LeftCols, n.RightCols)
			nj := NewJoin(neg, join.Inputs[1], join.LeftCols, join.RightCols)
			nj.Residual = join.Residual
			return nj
		},
	},
	{
		// Duplicate-elimination push-below-join (Section 5.4.2's second
		// heuristic): distinct(A ⋈ B) → distinct(A) ⋈ distinct(B) when the
		// join covers the full key on both sides... conservatively, when
		// each side is joined on all of its columns, so duplicates on
		// either side multiply results without adding distinct ones.
		name: "distinct-pushdown",
		applies: func(n *Node) bool {
			if n.Kind != Distinct || n.Inputs[0].Kind != Join {
				return false
			}
			j := n.Inputs[0]
			if j.Inputs[0].Schema == nil || j.Inputs[1].Schema == nil {
				return false
			}
			return len(j.LeftCols) == j.Inputs[0].Schema.Len() &&
				len(j.RightCols) == j.Inputs[1].Schema.Len()
		},
		apply: func(n *Node) *Node {
			j := n.Inputs[0]
			j.Inputs[0] = NewDistinct(j.Inputs[0])
			j.Inputs[1] = NewDistinct(j.Inputs[1])
			return j
		},
	},
}

// keyOnlyDistinct reports whether n is a Distinct whose every output column
// is one of the join key columns keys, so it holds at most one live tuple
// per key value.
func keyOnlyDistinct(n *Node, keys []int) bool {
	if n.Kind != Distinct || n.Schema == nil || len(keys) != n.Schema.Len() {
		return false
	}
	seen := make([]bool, len(keys))
	for _, c := range keys {
		if c < 0 || c >= len(keys) || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shapeKey fingerprints a plan's structure for deduplication.
func shapeKey(n *Node) string {
	key := n.Kind.String()
	switch n.Kind {
	case Source:
		key += fmt.Sprintf("S%d%v", n.StreamID, n.Window)
	case Select:
		if n.Pred != nil {
			key += n.Pred.String()
		}
	case Project:
		key += fmt.Sprint(n.Cols)
	case Join, Negate, RelJoin, NRRJoin:
		key += fmt.Sprint(n.LeftCols, n.RightCols)
	case GroupBy:
		key += fmt.Sprint(n.GroupCols, n.Aggs)
	}
	key += "("
	for _, in := range n.Inputs {
		key += shapeKey(in) + ","
	}
	return key + ")"
}
