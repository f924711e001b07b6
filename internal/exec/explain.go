package exec

import (
	"repro/internal/plan"
)

// explainQuery renders one registered unit's plan with its share keys and
// co-holders, and with analyze its live counters.
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
		attachStats(t, profileQuery(q), 1, e.Clock(), e.Watermark())
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
