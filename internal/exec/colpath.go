package exec

import (
	"repro/internal/operator"
	"repro/internal/tuple"
)

// Columnar execution path. When a plan qualifies (colPlanSupported), a
// PushBatch lays its arrivals out as per-column typed vectors at the window
// boundary — string values interned to dense ids, expiration stamped in one
// vectorized pass — and they flow through the operator kernels of
// operator/colkernel.go and colstateful.go without ever materializing row
// tuples except where state or the view requires them.
//
// Columnar runs are tape events (tape.go). The window stage runs per run as
// on the row chain — validation, clock advance and maintenance passes,
// arrival count, StampRun — and then appends the run, in call order, to its
// source's column batch, which collects every run of the call, and records an
// evCols event. The replay walks the tape in order. A selection over a source
// (or over such a selection) is stateless, so its component evaluates it once
// per replay over all of the source's rows and keeps each survivor's source
// row; at each evCols event the run's survivors go on down the plan, and its
// rows go to every other consumer as a zero-copy sub-batch. Every stateful
// kernel therefore sees exactly one run at that run's time, between the same
// maintenance passes as one PushBatch per run would show it.
//
// The fallback ladder is per plan, then per engine:
//
//   - plan-time: any operator or predicate without a kernel (see
//     operator.ColSupported), a materialized window (count-based, or any
//     window under NT), a stream feeding several windows, or a non-scalar
//     column kind keeps the whole plan on the row batch path (colOK never
//     set);
//   - run-time: the first arrival whose value kinds disagree with its stream
//     schema demotes the engine permanently — mixed-kind data could otherwise
//     plant row-path state a later columnar probe cannot lay out. Demotion
//     stages the offending run, and every later one, in row form on the same
//     tape, and the flag is persisted in checkpoints so a restored engine
//     stays demoted.
//
// Both paths mutate the same operator state through the same buffer
// operations and canonical keys, so they are freely interleavable (Push,
// Advance and table updates always use the row chain). A tape that holds
// laid-out runs is replayed on the caller, never on workers.

// colPlanSupported reports whether every layer of the live dataflow has a
// columnar fast path. Recomputed (recomputeColPath) after every registration
// change, over the live sources and nodes.
func (e *Engine) colPlanSupported() bool {
	if len(e.sources) == 0 {
		return false
	}
	counts := make(map[int]int, len(e.sources))
	for _, s := range e.sources {
		counts[s.stream]++
	}
	for _, s := range e.sources {
		// A stream feeding several windows (self-join shapes) interleaves
		// stamped tuples and evictions across sources; the row path keeps
		// that ordering exact.
		if counts[s.stream] != 1 {
			return false
		}
		// A materialized window stores each arrival (and a count-based one
		// evicts per arrival); only StampRun admits a whole run.
		if s.win.Materialized() {
			return false
		}
		if !tuple.ColumnarKinds(s.schema) {
			return false
		}
	}
	for _, n := range e.nodes {
		if !operator.ColSupported(n.op) {
			return false
		}
		if !tuple.ColumnarKinds(n.op.Schema()) {
			return false
		}
	}
	return true
}

// Columnar reports whether the engine currently routes batched source runs
// through the columnar kernels — false when Config.NoColumnar pins it to the
// row path, when the plan has no full kernel coverage, or after a runtime
// demotion. Experiment harnesses use it to verify the leg under measurement
// is actually the leg that ran.
func (e *Engine) Columnar() bool { return e.colOK }

// initColPath gives every live record that has none the batch buffer the
// columnar path stages its runs in: a source's collects the laid-out runs of
// a call, a node's its output run. One buffer per node suffices: a run flows
// root-ward depth-first and no operator retains its input batch.
func (e *Engine) initColPath() {
	for _, s := range e.sources {
		if s.cols == nil {
			s.cols = tuple.NewColBatch(s.schema)
		}
	}
	for _, n := range e.nodes {
		if n.cols == nil {
			n.cols = tuple.NewColBatch(n.op.Schema())
		}
	}
}

// valsConform reports whether every arrival of run matches schema's width
// and column kinds exactly — the admission criterion for columnar layout.
func valsConform(schema *tuple.Schema, run []Arrival) bool {
	for i := range run {
		vals := run[i].Vals
		if len(vals) != schema.Len() {
			return false
		}
		for c := range vals {
			if vals[c].Kind() != schema.Col(c).Kind {
				return false
			}
		}
	}
	return true
}

// stageCols is the columnar window stage of a same-timestamp run: it lays the
// run out after the call's earlier runs on src's column batch (interning
// strings), stamps the run's shared expiration with one StampRun call and
// records the rows on the tape. It returns conforms=false, having changed
// nothing, when the run fails valsConform (AppendRun refuses exactly those
// runs); the caller then demotes the engine.
func (e *Engine) stageCols(src *liveSource, ts int64, run []Arrival) (conforms bool, err error) {
	cb := src.cols
	lo := cb.Len()
	rows := e.colRows[:0]
	for i := range run {
		rows = append(rows, run[i].Vals)
	}
	ok := cb.AppendRun(ts, 0, rows, e.intern)
	for i := range rows {
		rows[i] = nil
	}
	e.colRows = rows[:0]
	if !ok {
		return false, nil
	}
	// A refused stamp leaves the rows without an event: no replay reads them.
	exp, err := src.win.StampRun(ts, len(run))
	if err != nil {
		return true, err
	}
	cb.StampExp(lo, exp)
	e.tape.closeCols(src, lo, cb.Len(), ts)
	return true, nil
}

// resetCols empties the sources' column batches once their runs are
// replayed.
func (e *Engine) resetCols() {
	for _, s := range e.sources {
		if s.cols != nil && s.cols.Len() > 0 {
			s.cols.Reset()
		}
	}
}

// colSel is a selection whose component evaluates it once per replay over
// all of its source's laid-out rows: node reads the source itself (parent
// nil) or parent's survivors. Its survivors sit in node.cols, in source row
// order, and orig holds each one's source row, so an evCols event's share is
// a contiguous range of them, which travels in view; at is the first
// survivor no event has routed yet.
type colSel struct {
	node   *liveNode
	parent *colSel
	orig   []int32
	at     int
	view   tuple.ColBatch
}

// appendColSels appends a colSel for n, and then for the selections under
// it, to sels when n is a selection with a kernel; parent is the colSel n
// reads (nil: n reads a source).
func appendColSels(sels []*colSel, n *liveNode, parent *colSel) []*colSel {
	if _, ok := n.op.(*operator.Select); !ok || !operator.ColSupported(n.op) {
		return sels
	}
	n.sel = &colSel{node: n, parent: parent}
	sels = append(sels, n.sel)
	for _, ed := range n.outs {
		sels = appendColSels(sels, ed.node, n.sel)
	}
	return sels
}

// evalSels runs each selection over a source once, over every row its
// source's column batch holds, parents first, and records where each
// survivor came from. It is charged as one operator run.
func (c *component) evalSels() error {
	for s := range c.fan {
		src := c.e.sources[s].cols
		if src.Len() == 0 {
			continue // no event of this replay reads the source's selections
		}
		for _, sel := range c.fan[s].sels {
			in := src
			if sel.parent != nil {
				in = sel.parent.node.cols
			}
			out := sel.node.cols
			out.Reset()
			start := c.startRun()
			err := operator.ProcessColBatch(sel.node.op, 0, in, c.now, out, c.e.intern)
			chargeRun(sel.node, start)
			if err != nil {
				return err
			}
			sel.orig, sel.at = sel.orig[:0], 0
			for _, r := range out.Gathered() {
				if sel.parent != nil {
					r = sel.parent.orig[r]
				}
				sel.orig = append(sel.orig, r)
			}
		}
	}
	return nil
}

// feedSourceCols routes an evCols event's rows to the component's share of
// the source's fan-out: the selections over it pass on their survivors from
// those rows, and every other consumer and bare-window view reads the rows
// themselves through the fan's sub-batch view. Kernels never retain their
// input batch and a node never appears in its own downstream (the dataflow
// is acyclic), so the view can feed every edge in turn.
func (c *component) feedSourceCols(ev *tapeEvent) error {
	fan := &c.fan[ev.src]
	lo, hi := int(ev.lo), int(ev.hi)
	if fan.rows {
		fan.view.View(c.e.sources[ev.src].cols, lo, hi)
	}
	for _, q := range fan.sinks {
		c.applyResultCols(q, &fan.view)
	}
	for _, ed := range fan.outs {
		var err error
		if ed.node.sel != nil {
			err = c.routeSel(ed.node.sel, hi, hi-lo)
		} else {
			err = c.feedCols(ed.node, ed.side, &fan.view)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// routeSel passes on sel's survivors from the source rows before hi that no
// earlier event routed, having taken in rows of its input: the twin of
// feedCols for a selection evaluated ahead (evalSels), with the same
// counters. Laid-out rows are insertions, and so are their survivors.
func (c *component) routeSel(sel *colSel, hi, in int) error {
	node := sel.node
	node.inPos.Add(int64(in))
	a, b := sel.at, sel.at
	for b < len(sel.orig) && int(sel.orig[b]) < hi {
		b++
	}
	if a == b {
		return nil
	}
	sel.at = b
	node.pos.Add(int64(b - a))
	sel.view.View(node.cols, a, b)
	for _, q := range node.sinks {
		c.applyResultCols(q, &sel.view)
	}
	for _, ed := range node.outs {
		var err error
		if ed.node.sel != nil {
			err = c.routeSel(ed.node.sel, hi, b-a)
		} else {
			err = c.feedCols(ed.node, ed.side, &sel.view)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// feedCols processes a same-side columnar run at node through its kernel and
// pushes the emitted batch toward the root — the columnar twin of feedBatch,
// with identical counter semantics and the same timing rule: the flow's
// sampler picks the kernel calls a timed engine times (startRun).
func (f *flow) feedCols(node *liveNode, side int, in *tuple.ColBatch) error {
	neg := int64(in.NegCount())
	pos := int64(in.Len()) - neg
	if pos > 0 {
		node.inPos.Add(pos)
	}
	if neg > 0 {
		node.inNeg.Add(neg)
	}
	out := node.cols
	out.Reset()
	start := f.startRun()
	err := operator.ProcessColBatch(node.op, side, in, f.now, out, f.e.intern)
	chargeRun(node, start)
	if err != nil {
		return err
	}
	return f.propagateCols(node, out)
}

// propagateCols forwards a columnar emission batch from node to its parent
// (or the view at the root), with the same polarity accounting and
// update-pattern conformance observation as propagateBatch — the retraction
// observer classifies by expiration timestamp alone, so no row values are
// materialized for it.
func (f *flow) propagateCols(node *liveNode, outs *tuple.ColBatch) error {
	if outs.Len() == 0 {
		return nil
	}
	neg := int64(outs.NegCount())
	pos := int64(outs.Len()) - neg
	if neg > 0 {
		for i, n := 0, outs.Len(); i < n; i++ {
			if outs.NegAt(i) {
				node.observeRetraction(tuple.Tuple{TS: outs.TSAt(i), Exp: outs.ExpAt(i), Neg: true}, f.now)
			}
		}
		node.neg.Add(neg)
	}
	if pos > 0 {
		node.pos.Add(pos)
	}
	for _, q := range node.sinks {
		f.applyResultCols(q, outs)
	}
	for _, ed := range node.outs {
		if err := f.feedCols(ed.node, ed.side, outs); err != nil {
			return err
		}
	}
	return nil
}

// applyResultCols folds a root emission batch into q's view, one
// materialized row at a time (views store rows); value slices come from the
// engine's arena, not per-tuple allocations.
func (f *flow) applyResultCols(q *queryUnit, cb *tuple.ColBatch) {
	n := cb.Len()
	for i := 0; i < n; i++ {
		f.applyResult(q, cb.RowTuple(i, &f.e.colArena, f.e.intern))
	}
}
