package plan

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/operator"
)

// This file renders a physical plan as an annotated tree — EXPLAIN — and,
// when the executor attaches live per-operator counters, as EXPLAIN ANALYZE.
// Node IDs are the operator's pre-order index over the physical tree
// (root = 0, children left to right), matching the `id` label of the
// executor's upa_op_* metric series, so a tree line, a Profile row, and a
// Prometheus series can be cross-referenced by the same number.

// NodeStats are one operator's live counters, attached by the executor in
// ANALYZE mode. All values are cumulative except State/Touched, which are
// the most recently sampled gauge readings.
type NodeStats struct {
	// InPos/InNeg count tuples arriving on the operator's inputs, split by
	// polarity (negatives are retractions travelling the edge).
	InPos, InNeg int64
	// OutPos/OutNeg count tuples the operator emitted.
	OutPos, OutNeg int64
	// Expired counts output tuples produced by expiration work (Advance),
	// a subset of OutPos+OutNeg.
	Expired int64
	// State and Touched are the sampled stored-tuple count and cumulative
	// tuple visits.
	State, Touched int64
	// ProcNanos is cumulative wall time processing input runs and expiring
	// state, estimated from sampled runs (only measured when the engine runs
	// with a metrics registry attached).
	ProcNanos int64
	// Observed is the update-pattern class the operator's output stream has
	// actually exhibited, per the executor's conformance monitor; compare
	// with the node's declared class on the tree line. Mismatch marks
	// Observed exceeding the declaration (a conformance failure), and
	// Violations counts the offending retractions.
	Observed   core.Pattern
	Mismatch   bool
	Violations int64
}

// ExplainNode is one rendered plan node: an operator (PNode != nil) or a
// base-stream window leaf (Source != nil).
type ExplainNode struct {
	// ID is the operator's pre-order index (root = 0), matching the "id"
	// metric label; -1 for source leaves, which carry no stats cell.
	ID int
	// PNode is the physical operator (nil for source leaves).
	PNode *PNode
	// Source is the window leaf (nil for operators).
	Source *PSource
	// Name is the operator or source heading, e.g. "negate([0]=[0])".
	Name string
	// Detail is the operator's physical self-description (key columns,
	// chosen state structures); empty when the operator offers none.
	Detail string
	// Pattern is the node's output-edge update-pattern class.
	Pattern core.Pattern
	// Children are the inputs, left to right.
	Children []*ExplainNode
	// Stats are live counters, non-nil only in ANALYZE mode.
	Stats *NodeStats
	// SharedWith names the other registered queries whose plans map onto the
	// same canonical physical node (multi-query registry only); empty for a
	// private node or a standalone engine.
	SharedWith []string
	// ShareKey is the node's canonical descriptor when the executor attaches
	// sharing information — the share-compatibility verdict two plans are
	// compared by. Empty outside a registry.
	ShareKey string
}

// ExplainTree is a renderable description of one physical plan.
type ExplainTree struct {
	Strategy Strategy
	// Pattern is the root edge's update-pattern class.
	Pattern core.Pattern
	// View describes the materialized-result structure.
	View string
	// Partition is the partition-key status: the per-stream routing columns
	// when the plan shards, or the human-readable fallback reason.
	Partition string
	// Root is the plan tree (never nil; a bare window plan renders as its
	// source leaf).
	Root *ExplainNode

	// ANALYZE extras, filled by the executor.
	Analyzed bool
	// Clock is the engine's logical time; Watermark is the timestamp up to
	// which expirations are fully reflected in the result view.
	Clock, Watermark int64
	// Shards is how many engine copies the counters were summed over
	// (1 for a sequential engine).
	Shards int
}

// Explain builds the renderable tree for a physical plan. The logical and
// physical trees are structurally aligned (Build preserves child order and
// registers sources in DFS order), so one parallel walk recovers, for every
// operator, both its logical parameters and its physical configuration.
func Explain(p *Physical) *ExplainTree {
	t := &ExplainTree{
		Strategy:  p.Strategy,
		Pattern:   p.Pattern,
		View:      viewDesc(p.View),
		Partition: partitionDesc(p),
	}
	srcIdx := 0
	id := 0
	var walk func(ln *Node, pn *PNode) *ExplainNode
	walk = func(ln *Node, pn *PNode) *ExplainNode {
		if ln.Kind == Source {
			src := p.Sources[srcIdx]
			srcIdx++
			return &ExplainNode{
				ID:      -1,
				Source:  src,
				Name:    fmt.Sprintf("source(S%d, %s)", src.StreamID, src.Spec),
				Pattern: ln.Pattern,
			}
		}
		en := &ExplainNode{ID: id, PNode: pn, Name: nodeTitle(ln), Pattern: ln.Pattern}
		id++
		if d, ok := pn.Op.(operator.Describer); ok {
			en.Detail = d.Describe()
		}
		for i, child := range ln.Inputs {
			var cpn *PNode
			if i < len(pn.Inputs) {
				cpn = pn.Inputs[i]
			}
			en.Children = append(en.Children, walk(child, cpn))
		}
		return en
	}
	t.Root = walk(p.Logical, p.Root)
	return t
}

// Walk visits every node of the tree in pre-order.
func (t *ExplainTree) Walk(fn func(n *ExplainNode)) {
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		if n == nil {
			return
		}
		fn(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// nodeTitle renders the operator heading with its logical parameters,
// mirroring Node.render.
func nodeTitle(n *Node) string {
	switch n.Kind {
	case Select:
		return fmt.Sprintf("select(%s)", n.Pred)
	case Project:
		return fmt.Sprintf("project%v", n.Cols)
	case GroupBy:
		return fmt.Sprintf("groupby%v %v", n.GroupCols, n.Aggs)
	case Join, Negate:
		return fmt.Sprintf("%s(%v=%v)", n.Kind, n.LeftCols, n.RightCols)
	case RelJoin, NRRJoin:
		return fmt.Sprintf("%s(%s, %v=%v)", n.Kind, n.Table.Name(), n.LeftCols, n.RightCols)
	default:
		return n.Kind.String()
	}
}

// viewDesc summarizes the materialized-result structure.
func viewDesc(v ViewConfig) string {
	out := v.Kind.String()
	// A partitioned view's key is an access path for retractions, not part of
	// what the view is: leaving it out keeps the plan fingerprint, and with it
	// every checkpoint written before the calendar had an index, valid.
	if len(v.KeyCols) > 0 && v.Kind != ViewPartitioned {
		out += fmt.Sprintf(" key%v", v.KeyCols)
	}
	if v.TimeExpiry {
		out += " time-expiry"
	}
	return out
}

// partitionDesc runs the partitionability analysis and renders its verdict.
func partitionDesc(p *Physical) string {
	part, err := partitionKey(p.Logical)
	if err != nil {
		return "not partitionable: " + err.Error()
	}
	ids := make([]int, 0, len(part.ByStream))
	for id := range part.ByStream {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("S%d%v", id, part.ByStream[id]))
	}
	out := "by key " + strings.Join(parts, " ")
	if part.Stateless {
		out += " (stateless: any key spreads load)"
	}
	return out
}

// WriteText renders the tree as indented text. Header lines carry the
// plan-wide choices; each node line shows the operator, its update-pattern
// class in brackets (as in the paper's Figure 6), and its metric id. In
// ANALYZE mode each operator is followed by a counters line.
func (t *ExplainTree) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "strategy:  %v\npattern:   [%v]\nview:      %s\npartition: %s\n",
		t.Strategy, t.Pattern, t.View, t.Partition); err != nil {
		return err
	}
	if t.Analyzed {
		shards := t.Shards
		if shards < 1 {
			shards = 1
		}
		if _, err := fmt.Fprintf(w, "analyze:   clock=%d watermark=%d shards=%d\n", t.Clock, t.Watermark, shards); err != nil {
			return err
		}
	}
	var werr error
	var render func(n *ExplainNode, depth int)
	render = func(n *ExplainNode, depth int) {
		if werr != nil {
			return
		}
		pad := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%s [%v]", pad, n.Name, n.Pattern)
		if n.ID >= 0 {
			line += fmt.Sprintf(" id=%d", n.ID)
		}
		if _, werr = fmt.Fprintln(w, line); werr != nil {
			return
		}
		if n.Detail != "" {
			if _, werr = fmt.Fprintf(w, "%s  · %s\n", pad, n.Detail); werr != nil {
				return
			}
		}
		if len(n.SharedWith) > 0 {
			if _, werr = fmt.Fprintf(w, "%s  · shared with %s\n", pad, strings.Join(n.SharedWith, ",")); werr != nil {
				return
			}
		}
		if n.Stats != nil {
			if _, werr = fmt.Fprintf(w, "%s  · %s\n", pad, n.Stats.line()); werr != nil {
				return
			}
		}
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	render(t.Root, 0)
	return werr
}

// line renders one operator's counters compactly.
func (s *NodeStats) line() string {
	out := fmt.Sprintf("in +%d/-%d  out +%d/-%d  expired %d  state %d  touched %d",
		s.InPos, s.InNeg, s.OutPos, s.OutNeg, s.Expired, s.State, s.Touched)
	if s.ProcNanos > 0 {
		out += fmt.Sprintf("  proc ≈%s", fmtNanos(s.ProcNanos))
	}
	out += fmt.Sprintf("  observed [%v]", s.Observed)
	switch {
	case s.Mismatch:
		out += fmt.Sprintf(" EXCEEDS DECLARED (%d violations)", s.Violations)
	case s.Violations > 0:
		out += fmt.Sprintf(" (%d violations)", s.Violations)
	}
	return out
}

// fmtNanos renders a nanosecond count with a readable unit.
func fmtNanos(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dns", n)
	}
}

// WriteDOT renders the tree as a Graphviz digraph: one box per operator
// (labeled with name, pattern class, physical detail, and — analyzed —
// counters), one ellipse per source, edges flowing inputs → root.
func (t *ExplainTree) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "digraph plan {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n  label=%q;\n",
		fmt.Sprintf("strategy %v | pattern %v | view %s", t.Strategy, t.Pattern, t.View)); err != nil {
		return err
	}
	names := map[*ExplainNode]string{}
	seq := 0
	t.Walk(func(n *ExplainNode) {
		if n.ID >= 0 {
			names[n] = fmt.Sprintf("n%d", n.ID)
		} else {
			names[n] = fmt.Sprintf("s%d", seq)
			seq++
		}
	})
	var werr error
	t.Walk(func(n *ExplainNode) {
		if werr != nil {
			return
		}
		label := fmt.Sprintf("%s\n[%v]", n.Name, n.Pattern)
		if n.ID >= 0 {
			label += fmt.Sprintf(" id=%d", n.ID)
		}
		if n.Detail != "" {
			label += "\n" + n.Detail
		}
		if len(n.SharedWith) > 0 {
			label += "\nshared with " + strings.Join(n.SharedWith, ",")
		}
		if n.Stats != nil {
			label += "\n" + n.Stats.line()
		}
		attrs := ""
		if n.Source != nil {
			attrs = ", shape=ellipse"
		}
		if _, werr = fmt.Fprintf(w, "  %s [label=%q%s];\n", names[n], label, attrs); werr != nil {
			return
		}
		for _, c := range n.Children {
			if _, werr = fmt.Fprintf(w, "  %s -> %s [label=%q];\n", names[c], names[n], c.Pattern.String()); werr != nil {
				return
			}
		}
	})
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
