package exec

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
)

// OpProfile is one operator's runtime counters.
type OpProfile struct {
	// ID is the operator's pre-order index in the plan (root = 0), matching
	// the "id" label of the upa_op_* series and plan.Explain's node ids.
	ID int
	// Class names the operator.
	Class string
	// Pattern is the output edge's update-pattern annotation.
	Pattern string
	// Depth is the operator's depth in the plan tree (root = 0).
	Depth int
	// StateTuples is the stored tuple count at the last sampling point
	// (first arrival, every 64th arrival, every Sync).
	StateTuples int
	// Touched is the cumulative tuple-visit count of the operator's state
	// structures at the last sampling point.
	Touched int64
	// InPos and InNeg count the positive and negative tuples that arrived
	// on the operator's inputs.
	InPos, InNeg int64
	// Emitted and Retracted count the positive and negative tuples the
	// operator has produced on its output edge.
	Emitted, Retracted int64
	// Expired counts outputs produced by expiration work (Advance passes).
	Expired int64
	// ProcNanos is cumulative wall time processing input runs and expiring
	// state in the maintenance passes, estimated from 1-in-16 sampled runs.
	// It is zero unless the engine was built with Config.Metrics set.
	ProcNanos int64
	// Observed is the strongest update-pattern class the operator's output
	// stream has actually exhibited (the conformance monitor's verdict);
	// compare with Pattern, the declared class.
	Observed core.Pattern
	// ViolExpiration, ViolOutOfOrder, and ViolPremature count retractions
	// that exceeded the declared class, by violation kind (see the
	// Violation* constants).
	ViolExpiration, ViolOutOfOrder, ViolPremature int64
}

// Violations sums the profile's conformance-violation counts.
func (p OpProfile) Violations() int64 {
	return p.ViolExpiration + p.ViolOutOfOrder + p.ViolPremature
}

// profileQuery reads one unit's operator counters in plan pre-order.
func profileQuery(q *queryUnit) []OpProfile {
	var out []OpProfile
	idx := 0
	var walk func(n *plan.PNode, depth int)
	walk = func(n *plan.PNode, depth int) {
		if n == nil {
			return
		}
		st := q.nodes[idx]
		byKind, _ := st.violations()
		out = append(out, OpProfile{
			ID:             idx,
			Class:          n.Class.String(),
			Pattern:        n.Pattern.String(),
			Depth:          depth,
			StateTuples:    int(st.state.Value()),
			Touched:        st.touched.Value(),
			InPos:          st.inPos.Value(),
			InNeg:          st.inNeg.Value(),
			Emitted:        st.pos.Value(),
			Retracted:      st.neg.Value(),
			Expired:        st.expired.Value(),
			ProcNanos:      st.procNanos.Value(),
			Observed:       core.Pattern(st.conf.observedG.Value()),
			ViolExpiration: byKind[violExpiration],
			ViolOutOfOrder: byKind[violOutOfOrder],
			ViolPremature:  byKind[violPremature],
		})
		idx++
		for _, c := range n.Inputs {
			walk(c, depth+1)
		}
	}
	walk(q.phys.Root, 0)
	return out
}

// WriteConformance renders the conformance monitor's verdict as a table:
// one row per operator with its declared and observed update-pattern
// classes and violation counts by kind (shared by the /debug/conformance
// page and upaquery's -latency report).
func WriteConformance(w io.Writer, profs []OpProfile) error {
	total := int64(0)
	for _, p := range profs {
		total += p.Violations()
	}
	verdict := "CONFORMANT"
	if total > 0 {
		verdict = fmt.Sprintf("%d VIOLATIONS", total)
	}
	if _, err := fmt.Fprintf(w, "pattern conformance: %s\n\n", verdict); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %-28s %-9s %-9s %12s %12s %12s\n",
		"id", "operator", "declared", "observed", "expiration", "out_of_order", "premature"); err != nil {
		return err
	}
	for _, p := range profs {
		name := strings.Repeat("  ", p.Depth) + p.Class
		flag := ""
		if p.Violations() > 0 {
			flag = "  <-- exceeds declared"
		}
		if _, err := fmt.Fprintf(w, "%-4d %-28s %-9s %-9s %12d %12d %12d%s\n",
			p.ID, name, p.Pattern, p.Observed.String(),
			p.ViolExpiration, p.ViolOutOfOrder, p.ViolPremature, flag); err != nil {
			return err
		}
	}
	return nil
}

// writeProfiles renders a profile slice (one engine's, or one partition's).
func writeProfiles(w io.Writer, profs []OpProfile) error {
	if len(profs) == 0 {
		_, err := fmt.Fprintln(w, "(bare window plan: no operators)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-28s %-5s %-8s %10s %12s %10s %10s %6s\n",
		"operator", "edge", "observed", "state", "touched", "emitted", "retracted", "viol"); err != nil {
		return err
	}
	for _, p := range profs {
		name := strings.Repeat("  ", p.Depth) + p.Class
		if _, err := fmt.Fprintf(w, "%-28s %-5s %-8s %10d %12d %10d %10d %6d\n",
			name, p.Pattern, p.Observed.String(), p.StateTuples, p.Touched, p.Emitted, p.Retracted, p.Violations()); err != nil {
			return err
		}
	}
	return nil
}
