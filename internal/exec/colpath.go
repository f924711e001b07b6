package exec

import (
	"repro/internal/operator"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Columnar execution path. When a plan qualifies (colPlanSupported), ingest
// runs lay out arrivals as per-column typed vectors at the window boundary —
// string values interned to dense ids, expiration stamped in one vectorized
// pass (or admitted wholesale into a materialized NT window) — and flow
// through the operator kernels of operator/colkernel.go and colstateful.go
// without ever materializing row tuples except where state or the view
// requires them. The fallback ladder is per plan, then per engine:
//
//   - plan-time: any operator without a kernel (union, δ, negation,
//     intersection, the relation joins), a count-based window, a stream
//     feeding several windows, or a non-scalar column kind keeps the whole
//     plan on the row batch path (colOK never set);
//   - run-time: the first arrival whose value kinds disagree with its stream
//     schema demotes the engine permanently — mixed-kind data could otherwise
//     plant row-path state a later columnar probe cannot lay out. Demotion
//     replays the offending run through the row path unchanged, and the flag
//     is persisted in checkpoints so a restored engine stays demoted.
//
// Both paths mutate the same operator state through the same buffer
// operations and canonical keys, so they are freely interleavable (Push,
// Advance, table updates, and NT retractions always use the row chain).
// Columnar runs flow on the caller, after the tape recorded before them has
// been replayed (tape.go), and a columnar engine never replays on workers;
// their output deltas are counted on the engine's direct flow.

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
		// Count-based windows evict per arrival; no run-grained admission.
		// Materialized time-based windows (the NT strategy) admit whole runs
		// through AdmitRunCols.
		if s.win.Spec().Type == window.CountBased {
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
// columnar path stages its output runs in. One buffer per record suffices: a
// run flows root-ward depth-first and no operator retains its input batch.
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

// ingestRunCols admits a same-timestamp run in columnar form: lay out the
// value vectors (interning strings), stamp the run's shared expiration with
// one StampRun call, and feed the batch down the kernel pipeline. It returns
// conforms=false, having touched nothing but its staging batch, when the
// run fails valsConform (AppendRun refuses exactly those runs); the caller
// then demotes the engine.
func (e *Engine) ingestRunCols(src *liveSource, ts int64, run []Arrival) (conforms bool, err error) {
	cb := src.cols
	cb.Reset()
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
	var exp int64
	if src.win.Materialized() {
		exp, err = src.win.AdmitRunCols(ts, cb, e.intern)
	} else {
		exp, err = src.win.StampRun(ts, cb.Len())
	}
	if err != nil {
		return true, err
	}
	cb.StampExp(exp)
	return true, e.feedSourceCols(src, cb)
}

// feedSourceCols routes a window-stamped columnar run to the source's
// consumer edges (and straight to the views of bare-window queries). Kernels
// never retain their input batch and a node never appears in its own
// downstream (the dataflow is acyclic), so one staged batch can feed every
// edge in turn.
func (e *Engine) feedSourceCols(src *liveSource, cb *tuple.ColBatch) error {
	if cb.Len() == 0 {
		return nil
	}
	for _, q := range src.sinks {
		e.applyResultCols(q, cb)
	}
	for _, ed := range src.outs {
		if err := e.feedCols(ed.node, ed.side, cb); err != nil {
			return err
		}
	}
	return nil
}

// feedCols processes a same-side columnar run at node through its kernel and
// pushes the emitted batch toward the root — the columnar twin of feedBatch,
// with identical counter semantics and the same timing rule: the direct
// flow's sampler picks the kernel calls a timed engine times (startRun).
func (e *Engine) feedCols(node *liveNode, side int, in *tuple.ColBatch) error {
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
	start := e.direct.startRun()
	err := operator.ProcessColBatch(node.op, side, in, e.clock, out, e.intern)
	chargeRun(node, start)
	if err != nil {
		return err
	}
	return e.propagateCols(node, out)
}

// propagateCols forwards a columnar emission batch from node to its parent
// (or the view at the root), with the same polarity accounting and
// update-pattern conformance observation as propagateBatch — the retraction
// observer classifies by expiration timestamp alone, so no row values are
// materialized for it.
func (e *Engine) propagateCols(node *liveNode, outs *tuple.ColBatch) error {
	if outs.Len() == 0 {
		return nil
	}
	neg := int64(outs.NegCount())
	pos := int64(outs.Len()) - neg
	if neg > 0 {
		for i, n := 0, outs.Len(); i < n; i++ {
			if outs.NegAt(i) {
				node.observeRetraction(tuple.Tuple{TS: outs.TSAt(i), Exp: outs.ExpAt(i), Neg: true}, e.clock)
			}
		}
		node.neg.Add(neg)
	}
	if pos > 0 {
		node.pos.Add(pos)
	}
	for _, q := range node.sinks {
		e.applyResultCols(q, outs)
	}
	for _, ed := range node.outs {
		if err := e.feedCols(ed.node, ed.side, outs); err != nil {
			return err
		}
	}
	return nil
}

// applyResultCols folds a root emission batch into q's view, one
// materialized row at a time (views store rows); value slices come from the
// engine's arena, not per-tuple allocations.
func (e *Engine) applyResultCols(q *queryUnit, cb *tuple.ColBatch) {
	n := cb.Len()
	for i := 0; i < n; i++ {
		e.direct.applyResult(q, cb.RowTuple(i, &e.colArena, e.intern))
	}
}
