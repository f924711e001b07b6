package exec

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/plan"
)

// PlanPage builds the /debug/plan page over the queries that queries
// returns at each request: every one's EXPLAIN tree as text, or as a
// Graphviz digraph with ?format=dot, with live counters when ?analyze=1,
// under a "=== name ===" header only when several run. The live mode reads
// only atomic instruments (see Explain), so the page may be scraped while
// the producer runs.
func PlanPage(queries func() []*QueryHandle) obs.Page {
	return obs.Page{
		Path:  "/debug/plan",
		Title: "EXPLAIN of the running queries (?analyze=1, ?format=dot)",
		Handler: func(w http.ResponseWriter, r *http.Request) {
			analyze := r.URL.Query().Get("analyze") != ""
			dot, ct := r.URL.Query().Get("format") == "dot", "text/plain; charset=utf-8"
			if dot {
				ct = "text/vnd.graphviz; charset=utf-8"
			}
			w.Header().Set("Content-Type", ct)
			hs := queries()
			for _, h := range hs {
				t := h.Explain(analyze)
				switch {
				case dot:
					_ = t.WriteDOT(w)
				case len(hs) > 1:
					fmt.Fprintf(w, "=== %s ===\n", h.Name())
					_ = t.WriteText(w)
					fmt.Fprintln(w)
				default:
					_ = t.WriteText(w)
				}
			}
		},
	}
}

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
		attachStats(t, profileQuery(q), 1, e.met.clock.Value(), e.Watermark())
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
