package operator

import (
	"fmt"

	"repro/internal/statebuf"
)

// Describer is implemented by operators that can summarize their physical
// configuration — key columns, chosen state structures, strategy-dependent
// switches — for plan introspection (EXPLAIN). It is optional: the executor
// and renderers type-assert and fall back to the operator class name.
type Describer interface {
	// Describe returns a short single-line summary, e.g.
	// "key [0]=[0] state l=indexed-fifo r=indexed-fifo".
	Describe() string
}

// Describe implements Describer.
func (s *Select) Describe() string { return fmt.Sprintf("pred %s", s.pred) }

// Describe implements Describer.
func (p *Project) Describe() string { return fmt.Sprintf("cols %v", p.cols) }

// Describe implements Describer.
func (u *Union) Describe() string { return "merge" }

// Describe implements Describer.
func (j *Join) Describe() string {
	d := fmt.Sprintf("key %v=%v state l=%s r=%s",
		j.leftCols, j.rightCols, statebuf.KindOf(j.state[0]), statebuf.KindOf(j.state[1]))
	if j.residual != nil {
		d += fmt.Sprintf(" residual %s", j.residual)
	}
	if !j.timeExpiry {
		d += " no-time-expiry"
	}
	return d
}

// Describe implements Describer.
func (d *Distinct) Describe() string {
	out := fmt.Sprintf("input=%s rep-idx=%s", statebuf.KindOf(d.input), statebuf.KindOf(d.expIdx))
	if !d.timeExpiry {
		out += " no-time-expiry"
	}
	return out
}

// Describe implements Describer.
func (d *DistinctDelta) Describe() string {
	return fmt.Sprintf("δ rep-idx=%s (no input store)", statebuf.KindOf(d.expIdx))
}

// Describe implements Describer.
func (g *GroupBy) Describe() string {
	out := fmt.Sprintf("groups %v aggs %v", g.groupCols, g.specs)
	if g.input == nil {
		out += " no-input-store"
	} else {
		out += fmt.Sprintf(" input=%s", statebuf.KindOf(g.input))
	}
	return out
}

// Describe implements Describer.
func (n *Negate) Describe() string {
	out := fmt.Sprintf("attr %v=%v calendars w1=%s w2=%s",
		n.keyCols, n.rightCols, n.cal[0].Kind(), n.cal[1].Kind())
	if n.negOnExp {
		out += " negative-on-expiry"
	}
	return out
}

// Describe implements Describer.
func (i *Intersect) Describe() string {
	return fmt.Sprintf("calendars l=%s r=%s", i.cal[0].Kind(), i.cal[1].Kind())
}

// Describe implements Describer.
func (j *RelJoin) Describe() string {
	return fmt.Sprintf("table %s key %v=%v stream=%s",
		j.table.Name(), j.streamCols, j.tableCols, statebuf.KindOf(j.state))
}

// Describe implements Describer.
func (j *NRRJoin) Describe() string {
	out := fmt.Sprintf("table %s key %v=%v", j.table.Name(), j.streamCols, j.tableCols)
	if j.logAll {
		out += " result-log"
	}
	return out
}
