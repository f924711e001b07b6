package exec

import (
	"repro/internal/plan"
)

// Explain returns the renderable plan tree for the first registered query
// (the only one of a single-query engine), nil when the registry is empty.
// With analyze set, each operator node carries its live counters (EXPLAIN
// ANALYZE); the counters are read with atomic loads, so calling it while
// the engine runs is safe. A partitioned engine renders its plan once, with
// the partitions' counters merged by plan position (see Profile).
func (e *Engine) Explain(analyze bool) *plan.ExplainTree {
	if len(e.queries) == 0 {
		return nil
	}
	if e.parts == 1 {
		return e.explainQuery(e.queries[0], analyze)
	}
	t := plan.Explain(e.phys)
	if analyze {
		attachStats(t, e.Profile(), e.parts, e.Clock(), e.Watermark())
	}
	return t
}

// Explain returns the query's renderable plan tree, annotated with the
// registry's sharing verdicts: every node carries its canonical share key,
// and nodes executed by a physical operator other queries also map onto
// list those queries in SharedWith ("shared with q1,q3" in the text
// rendering).
func (h *QueryHandle) Explain(analyze bool) *plan.ExplainTree {
	return h.e.explainQuery(h.q, analyze)
}

func (e *Engine) explainQuery(q *queryUnit, analyze bool) *plan.ExplainTree {
	t := plan.Explain(q.phys)
	// The walk is pre-order: operators come in ID order, and window leaves in
	// the DFS order Build registered them in, phys.Sources order. A private
	// source (a stream windowed several times by one query) has no key.
	src := 0
	t.Walk(func(n *plan.ExplainNode) {
		var r *record
		if n.PNode != nil {
			r = &q.nodes[n.ID].record
		} else {
			r = &q.srcs[src].record
			src++
		}
		n.ShareKey, n.SharedWith = r.key, r.sharedWith(q)
	})
	if analyze {
		attachStats(t, e.profileQuery(q), 1, e.Clock(), e.Watermark())
	}
	return t
}

// attachStats marks the tree analyzed and pins each operator's profile row
// to its node. Both sides number operators by pre-order position, so
// ExplainNode.ID indexes straight into profs.
func attachStats(t *plan.ExplainTree, profs []OpProfile, shards int, clock, watermark int64) {
	t.Analyzed = true
	t.Shards = shards
	t.Clock = clock
	t.Watermark = watermark
	t.Walk(func(n *plan.ExplainNode) {
		if n.ID < 0 || n.ID >= len(profs) {
			return
		}
		p := profs[n.ID]
		n.Stats = &plan.NodeStats{
			InPos:      p.InPos,
			InNeg:      p.InNeg,
			OutPos:     p.Emitted,
			OutNeg:     p.Retracted,
			Expired:    p.Expired,
			State:      int64(p.StateTuples),
			Touched:    p.Touched,
			ProcNanos:  p.ProcNanos,
			Observed:   p.Observed,
			Mismatch:   p.Observed > n.Pattern,
			Violations: p.Violations(),
		}
	})
}
