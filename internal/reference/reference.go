// Package reference provides a naive, trivially-correct evaluator of
// continuous-query semantics (Definitions 1 and 2 of Section 4.2): given the
// full history of base-stream arrivals and table updates, it recomputes the
// answer Q(τ) from scratch as a one-time relational query over the states of
// the windows and relations at time τ. The integration tests compare every
// execution strategy's materialized view against it after every event — this
// is the ground truth of the reproduction.
package reference

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Row is one result row (values only; reference results carry no
// timestamps).
type Row []tuple.Value

// Evaluator records event history and evaluates an annotated logical plan at
// any time.
type Evaluator struct {
	root    *plan.Node
	streams map[int][]arrival
	tables  map[*relation.Table][]relation.Update
}

type arrival struct {
	ts   int64
	vals []tuple.Value
}

// New builds an evaluator for an annotated plan.
func New(root *plan.Node) *Evaluator {
	ev := &Evaluator{
		root:    root,
		streams: make(map[int][]arrival),
		tables:  make(map[*relation.Table][]relation.Update),
	}
	return ev
}

// Push records one base-stream arrival.
func (ev *Evaluator) Push(streamID int, ts int64, vals ...tuple.Value) {
	ev.streams[streamID] = append(ev.streams[streamID], arrival{ts: ts, vals: append([]tuple.Value(nil), vals...)})
}

// PushTable records one table update.
func (ev *Evaluator) PushTable(tbl *relation.Table, u relation.Update) {
	u.Row = append([]tuple.Value(nil), u.Row...)
	ev.tables[tbl] = append(ev.tables[tbl], u)
}

// Eval recomputes Q(now) from scratch.
func (ev *Evaluator) Eval(now int64) ([]Row, error) {
	return ev.eval(ev.root, now)
}

func (ev *Evaluator) eval(n *plan.Node, now int64) ([]Row, error) {
	ins := make([][]Row, len(n.Inputs))
	for i, in := range n.Inputs {
		rows, err := ev.eval(in, now)
		if err != nil {
			return nil, err
		}
		ins[i] = rows
	}
	switch n.Kind {
	case plan.Source:
		return ev.windowContents(n, now), nil

	case plan.Select:
		var out []Row
		for _, r := range ins[0] {
			if n.Pred.Eval(tuple.Tuple{Vals: r}) {
				out = append(out, r)
			}
		}
		return out, nil

	case plan.Project:
		out := make([]Row, len(ins[0]))
		for i, r := range ins[0] {
			p := make(Row, len(n.Cols))
			for j, c := range n.Cols {
				p[j] = r[c]
			}
			out[i] = p
		}
		return out, nil

	case plan.Union:
		return append(append([]Row(nil), ins[0]...), ins[1]...), nil

	case plan.Join:
		var out []Row
		for _, l := range ins[0] {
			for _, r := range ins[1] {
				if !keysEqual(l, r, n.LeftCols, n.RightCols) {
					continue
				}
				joined := append(append(Row(nil), l...), r...)
				if n.Residual != nil && !n.Residual.Eval(tuple.Tuple{Vals: joined}) {
					continue
				}
				out = append(out, joined)
			}
		}
		return out, nil

	case plan.Intersect:
		counts := map[string]int{}
		for _, r := range ins[1] {
			counts[renderRow(r)]++
		}
		var out []Row
		for _, l := range ins[0] {
			k := renderRow(l)
			if counts[k] > 0 {
				counts[k]--
				out = append(out, l)
			}
		}
		return out, nil

	case plan.Distinct:
		seen := map[string]bool{}
		var out []Row
		for _, r := range ins[0] {
			k := renderRow(r)
			if !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out, nil

	case plan.GroupBy:
		return groupBy(ins[0], n.GroupCols, n.Aggs), nil

	case plan.Negate:
		counts := map[string]int{}
		for _, r := range ins[1] {
			counts[renderKey(r, n.RightCols)]++
		}
		var out []Row
		for _, l := range ins[0] {
			k := renderKey(l, n.LeftCols)
			if counts[k] > 0 {
				counts[k]--
				continue
			}
			out = append(out, l)
		}
		return out, nil

	case plan.RelJoin:
		// Definition 1: current table state.
		rows := ev.tableState(n.Table, now)
		var out []Row
		for _, l := range ins[0] {
			for _, r := range rows {
				if keysEqual(l, r, n.LeftCols, n.RightCols) {
					out = append(out, append(append(Row(nil), l...), r...))
				}
			}
		}
		return out, nil

	case plan.NRRJoin:
		// Definition 2: each result reflects the NRR state at the stream
		// tuple's generation time, so evaluate against per-tuple snapshots.
		in := n.Inputs[0]
		live := ev.liveWithTimestamps(in, now)
		var out []Row
		for _, a := range live {
			rows := ev.tableState(n.Table, a.ts)
			for _, r := range rows {
				if keysEqual(a.vals, r, n.LeftCols, n.RightCols) {
					out = append(out, append(append(Row(nil), a.vals...), r...))
				}
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("reference: unknown node %v", n.Kind)
	}
}

// windowContents computes the live window contents at now: for a time-based
// window of size T, arrivals with ts in (now−T, now]; for a count-based
// window, the last N arrivals; for an unbounded stream, everything so far.
func (ev *Evaluator) windowContents(n *plan.Node, now int64) []Row {
	var out []Row
	arrivals := ev.streams[n.StreamID]
	switch {
	case n.Window.IsUnbounded():
		for _, a := range arrivals {
			if a.ts <= now {
				out = append(out, a.vals)
			}
		}
	case n.Window.Type == window.TimeBased:
		for _, a := range arrivals {
			if a.ts <= now && a.ts > now-n.Window.Size {
				out = append(out, a.vals)
			}
		}
	default: // count-based
		var recent []arrival
		for _, a := range arrivals {
			if a.ts <= now {
				recent = append(recent, a)
			}
		}
		if int64(len(recent)) > n.Window.Size {
			recent = recent[int64(len(recent))-n.Window.Size:]
		}
		for _, a := range recent {
			out = append(out, a.vals)
		}
	}
	return out
}

// liveWithTimestamps evaluates a sub-plan but retains each surviving row's
// origin timestamp — needed for Definition 2. It supports the sub-plan
// shapes that may legally feed ⋈NRR (source, select, project chains).
func (ev *Evaluator) liveWithTimestamps(n *plan.Node, now int64) []arrival {
	switch n.Kind {
	case plan.Source:
		var out []arrival
		for _, a := range ev.streams[n.StreamID] {
			if ev.rowLive(n, a, now) {
				out = append(out, a)
			}
		}
		if n.Window.Type == window.CountBased && int64(len(out)) > n.Window.Size {
			out = out[int64(len(out))-n.Window.Size:]
		}
		return out
	case plan.Select:
		var out []arrival
		for _, a := range ev.liveWithTimestamps(n.Inputs[0], now) {
			if n.Pred.Eval(tuple.Tuple{Vals: a.vals}) {
				out = append(out, a)
			}
		}
		return out
	case plan.Project:
		var out []arrival
		for _, a := range ev.liveWithTimestamps(n.Inputs[0], now) {
			p := make([]tuple.Value, len(n.Cols))
			for j, c := range n.Cols {
				p[j] = a.vals[c]
			}
			out = append(out, arrival{ts: a.ts, vals: p})
		}
		return out
	default:
		// Conservative fallback: treat results as generated now.
		rows, err := ev.eval(n, now)
		if err != nil {
			return nil
		}
		var out []arrival
		for _, r := range rows {
			out = append(out, arrival{ts: now, vals: r})
		}
		return out
	}
}

// rowLive reports whether one specific arrival is inside its window at now.
func (ev *Evaluator) rowLive(n *plan.Node, a arrival, now int64) bool {
	switch {
	case n.Window.IsUnbounded():
		return a.ts <= now
	case n.Window.Type == window.TimeBased:
		return a.ts <= now && a.ts > now-n.Window.Size
	default:
		return a.ts <= now // count windows trimmed by the caller
	}
}

// tableState replays the update history up to and including time ts.
func (ev *Evaluator) tableState(tbl *relation.Table, ts int64) []Row {
	var rows []Row
	for _, u := range ev.tables[tbl] {
		if u.TS > ts {
			break
		}
		switch u.Kind {
		case relation.Insert:
			rows = append(rows, u.Row)
		case relation.Delete:
			for i, r := range rows {
				if sameRow(r, u.Row) {
					rows = append(rows[:i], rows[i+1:]...)
					break
				}
			}
		}
	}
	return rows
}

func groupBy(rows []Row, groupCols []int, aggs []operator.AggSpec) []Row {
	type group struct {
		key  Row
		rows []Row
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		key := make(Row, len(groupCols))
		for i, c := range groupCols {
			key[i] = r[c]
		}
		ks := renderRow(key)
		g, ok := groups[ks]
		if !ok {
			g = &group{key: key}
			groups[ks] = g
			order = append(order, ks)
		}
		g.rows = append(g.rows, r)
	}
	sort.Strings(order)
	var out []Row
	for _, ks := range order {
		g := groups[ks]
		row := append(Row(nil), g.key...)
		for _, a := range aggs {
			row = append(row, aggValue(g.rows, a))
		}
		out = append(out, row)
	}
	return out
}

func aggValue(rows []Row, a operator.AggSpec) tuple.Value {
	switch a.Kind {
	case operator.Count:
		return tuple.Int(int64(len(rows)))
	case operator.Sum, operator.Avg:
		s := 0.0
		for _, r := range rows {
			s += r[a.Col].AsFloat()
		}
		if a.Kind == operator.Sum {
			return tuple.Float(s)
		}
		return tuple.Float(s / float64(len(rows)))
	case operator.Min:
		best := rows[0][a.Col]
		for _, r := range rows[1:] {
			if r[a.Col].Less(best) {
				best = r[a.Col]
			}
		}
		return best
	case operator.Max:
		best := rows[0][a.Col]
		for _, r := range rows[1:] {
			if best.Less(r[a.Col]) {
				best = r[a.Col]
			}
		}
		return best
	default:
		return tuple.Null
	}
}

func keysEqual(l, r Row, lc, rc []int) bool {
	for i := range lc {
		if !l[lc[i]].Equal(r[rc[i]]) {
			return false
		}
	}
	return true
}

func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func renderRow(r Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		v = canonVal(v)
		parts[i] = fmt.Sprintf("%v/%d", v, v.Kind)
	}
	return strings.Join(parts, "\x1f")
}

func renderKey(r Row, cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		v := canonVal(r[c])
		parts[i] = fmt.Sprintf("%v/%d", v, v.Kind)
	}
	return strings.Join(parts, "\x1f")
}

// canonVal folds integral floats inside the int64 range (±0 included) onto
// ints so cross-kind Equal values render identically. Every NaN renders as
// "NaN".
func canonVal(v tuple.Value) tuple.Value {
	if f := v.F(); v.Kind == tuple.KindFloat && f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		return tuple.Int(int64(f))
	}
	return v
}

// SameBag compares two row multisets, treating numerically-equal values as
// equal and floats within tolerance as equal.
func SameBag(a []Row, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, ra := range a {
		found := false
		for i, rb := range b {
			if used[i] || len(ra) != len(rb) {
				continue
			}
			match := true
			for j := range ra {
				if !valueClose(ra[j], rb[j]) {
					match = false
					break
				}
			}
			if match {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func valueClose(a, b tuple.Value) bool {
	if a.Equal(b) {
		return true
	}
	if (a.Kind == tuple.KindFloat || a.Kind == tuple.KindInt) &&
		(b.Kind == tuple.KindFloat || b.Kind == tuple.KindInt) {
		d := a.AsFloat() - b.AsFloat()
		if d < 0 {
			d = -d
		}
		scale := a.AsFloat()
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		return d <= 1e-9*scale
	}
	return false
}

// RowsOf converts engine snapshot tuples to reference rows.
func RowsOf(ts []tuple.Tuple) []Row {
	out := make([]Row, len(ts))
	for i, t := range ts {
		out[i] = t.Vals
	}
	return out
}

// Render renders a row multiset for diagnostics, sorted.
func Render(rows []Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = renderRow(r)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}
