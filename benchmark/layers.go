package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/benchmark/replay"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// perLayer lists the per-layer metrics a traced run prints, in report order.
// Every workload prints every one; a layer a workload never enters reads 0.
// Per-operator rows (operator.busy_share.<class>#<id> ...) vary with the
// plan, so they go to the printed table and the -out file; the fixed-name
// operator.* metrics here are their sums over the plan.
func perLayer() []metricDef {
	defs := []metricDef{
		{name: "trace.parse_ns_per_rec", unit: "ns/rec"},
		{name: "tuple.colbuild_ns_per_row", unit: "ns/row"},
		{name: "window.admit_ns_per_tuple", unit: "ns/tuple"},
		{name: "window.expire_ns_per_tuple", unit: "ns/tuple"},
	}
	for _, k := range replay.Kinds {
		for _, op := range []string{"insert_ns", "probe_ns", "expire_ns"} {
			defs = append(defs, metricDef{name: "statebuf." + k.Name + "." + op, unit: "ns"})
		}
	}
	return append(defs,
		metricDef{name: "operator.busy_share", unit: "share"},
		metricDef{name: "operator.max_query_share", unit: "share"},
		metricDef{name: "operator.in", unit: "count"},
		metricDef{name: "operator.out", unit: "count"},
		metricDef{name: "operator.retracted", unit: "count"},
		metricDef{name: "operator.touched_per_tuple", unit: "count"},
		metricDef{name: "operator.state_tuples", unit: "count"},
		metricDef{name: "exec.push_p99_us", unit: "us"},
		metricDef{name: "exec.self_ns_per_tuple", unit: "ns/tuple"},
		metricDef{name: "exec.viewfold_ns_per_delta", unit: "ns/delta"},
		metricDef{name: "exec.shard_blocked_share", unit: "share"},
		metricDef{name: "exec.shard_speedup", unit: "x", higher: true},
		metricDef{name: "obs.overhead_pct", unit: "%"},
		metricDef{name: "checkpoint.write_ms", unit: "ms"},
		metricDef{name: "checkpoint.bytes", unit: "bytes"},
		metricDef{name: "checkpoint.restore_ms", unit: "ms"},
		metricDef{name: "plan.compile_ms", unit: "ms"},
		metricDef{name: "unaccounted_pct", unit: "%"},
		metricDef{name: "trace_overhead_pct", unit: "%"},
	)
}

// layerRow is one line of the per-workload layer table: the time the traced
// pass spent in the layer itself, its share of the pass, and — where a
// replay exists — the replayed ns/op × the engine's own count beside it.
type layerRow struct {
	Layer    string  `json:"layer"`
	SelfMs   float64 `json:"self_ms"`
	SharePct float64 `json:"share_pct"`
	Estimate string  `json:"replayed_estimate,omitempty"`
}

// opRow is one physical operator of the traced engine over one pass.
type opRow struct {
	Query           string  `json:"query"`
	Name            string  `json:"name"` // <class>#<id>
	Pattern         string  `json:"pattern"`
	BusyShare       float64 `json:"busy_share"`
	In              int64   `json:"in"`
	Out             int64   `json:"out"`
	Retracted       int64   `json:"retracted"`
	TouchedPerTuple float64 `json:"touched_per_tuple"`
	StateTuples     int     `json:"state_tuples"`
	SharedBy        int     `json:"shared_by,omitempty"`
}

// opDelta is what the operators of the traced engine did during one pass.
type opDelta struct {
	rows       []opRow
	procNanos  int64 // Σ ProcNanos over distinct physical operators
	in, out    int64
	retracted  int64
	touched    int64
	state      int
	maxQueryNs int64 // the costliest query's share of procNanos
}

// opsDelta subtracts two OpStats readings. Queries on a registry report a
// shared operator once each with identical counters; those rows are the
// same physical node, counted once in the sums and split evenly between the
// queries for the per-query share.
func opsDelta(w workload, before, after [][]exec.OpProfile, wall time.Duration, records int) opDelta {
	type key struct {
		class                           string
		proc, inPos, inNeg, em, re, tch int64
		state                           int
	}
	var d opDelta
	seen := map[key]int{} // physical node → index of its row
	perQuery := make([]map[key]int64, len(after))
	for qi := range after {
		perQuery[qi] = map[key]int64{}
		for oi, a := range after[qi] {
			b := before[qi][oi]
			k := key{a.Class, a.ProcNanos - b.ProcNanos, a.InPos - b.InPos, a.InNeg - b.InNeg,
				a.Emitted - b.Emitted, a.Retracted - b.Retracted, a.Touched - b.Touched, a.StateTuples}
			perQuery[qi][k] = k.proc
			if at, dup := seen[k]; dup && len(after) > 1 {
				d.rows[at].SharedBy++
				continue
			}
			seen[k] = len(d.rows)
			d.rows = append(d.rows, opRow{
				Query: w.queries[qi].name, Name: fmt.Sprintf("%s#%d", a.Class, a.ID), Pattern: a.Pattern,
				BusyShare: float64(k.proc) / float64(wall), In: k.inPos + k.inNeg, Out: k.em, Retracted: k.re,
				TouchedPerTuple: float64(k.tch) / float64(records), StateTuples: a.StateTuples, SharedBy: 1,
			})
			d.procNanos += k.proc
			d.in += k.inPos + k.inNeg
			d.out += k.em
			d.retracted += k.re
			d.touched += k.tch
			d.state += a.StateTuples
		}
	}
	for qi := range perQuery {
		var ns int64
		for k, proc := range perQuery[qi] {
			ns += proc / int64(d.rows[seen[k]].SharedBy)
		}
		d.maxQueryNs = max(d.maxQueryNs, ns)
	}
	return d
}

// tracedPass is one pass of the traced leg with everything read around it.
type tracedPass struct {
	res     passResult
	times   layerTimes
	ops     opDelta
	blocked int64 // producer time blocked on full shard queues, ns
	emitNs  int64 // OnEmit callbacks' own time, ns
}

// blockedNanos sums the sharded executor's back-pressure series.
func blockedNanos(s *system) int64 {
	if s.metrics == nil {
		return 0
	}
	var total int64
	for name, v := range s.metrics.Snapshot().Counters {
		if strings.HasPrefix(name, exec.MetricShardQueueBlocked) {
			total += v
		}
	}
	return total
}

// runTraced is the per-layer run. Several engines of the workload (legs)
// replay the same passes in rotating order: one configured exactly as the
// end-to-end run and untraced, one with metrics on and spans recorded, and —
// where the comparison exists — one without metrics (mix16-registry) and one
// on a single shard (q4-shard2). The traced leg's spans and the engine's own
// counters give the layer table; the untraced legs give the overheads; the
// replays give a cost per operation for the layers a span cannot isolate.
func runTraced(w workload, seed int64, seconds float64) (*workloadReport, []span, error) {
	rep := &workloadReport{Workload: w.name, Why: w.why, Traced: true, Seed: seed, Sizes: sizesOf(w, 1, seconds)}
	callsPerPass := w.records/w.batch + 8
	rec := newRecorder(callsPerPass * 2 * 6) // untouched capacity costs no memory

	base, in, st, err := setUp(w, seed, legCfg{metrics: w.registry, shards: w.shards}, nil, "untraced")
	if err != nil {
		return nil, nil, err
	}
	legs := []*leg{base}
	addLeg := func(name string, cfg legCfg, rec *recorder) (*leg, error) {
		sys, err := build(w, cfg, rec != nil)
		if err != nil {
			return nil, err
		}
		l, err := warm(sys, in, rec, name)
		if err != nil {
			return nil, err
		}
		legs = append(legs, l)
		return l, nil
	}
	traced, err := addLeg("traced", legCfg{metrics: true, shards: w.shards}, rec)
	if err != nil {
		return nil, nil, err
	}
	var bare, oneShard *leg
	if w.registry {
		if bare, err = addLeg("no-metrics", legCfg{}, nil); err != nil {
			return nil, nil, err
		}
	}
	if w.shards > 1 && runtime.NumCPU() > 1 {
		if oneShard, err = addLeg("one-shard", legCfg{}, nil); err != nil {
			return nil, nil, err
		}
	}
	defer func() {
		for _, l := range legs {
			l.sys.ing.Close()
		}
	}()

	// The view-fold replay starts from what the views hold now and folds the
	// deltas the first traced pass emits.
	prime, err := traced.sys.snapshots()
	if err != nil {
		return nil, nil, err
	}
	traced.sys.sub.capture = true

	var failures []error
	var tps []tracedPass
	var last passInput
	start := time.Now()
	for round := 1; round <= minPasses || time.Since(start).Seconds() < seconds; round++ {
		pi, err := in.prepare(w.grain, round)
		if err != nil {
			return nil, nil, err
		}
		for k := range legs {
			l := legs[(k+round)%len(legs)]
			if l != traced {
				if err := l.record(l.runPass(round, pi)); err != nil {
					failures = append(failures, err)
				}
				continue
			}
			before, blocked0, emit0 := l.sys.opStats(), blockedNanos(l.sys), l.sys.sub.nanos.Load()
			res := l.runPass(round, pi)
			tps = append(tps, tracedPass{
				res:     res,
				times:   passTimes(rec.spans, int32(round)),
				ops:     opsDelta(w, before, l.sys.opStats(), res.wall, res.records),
				blocked: blockedNanos(l.sys) - blocked0,
				emitNs:  l.sys.sub.nanos.Load() - emit0,
			})
			if err := l.record(res); err != nil {
				failures = append(failures, err)
			}
			l.sys.sub.capture = false
		}
		last = pi
	}

	rep.Passes = len(traced.passes)
	for _, l := range legs {
		rep.Attempted += totalOps(l.passes)
		rep.Failed += l.failed
	}
	if w.repeats() {
		// The operator counts are the engine's own; like the output they
		// must not move between passes.
		for _, tp := range tps[1:] {
			a, b := tp.ops, tps[0].ops
			if a.in != b.in || a.out != b.out || a.retracted != b.retracted {
				failures = append(failures, fmt.Errorf("operator counts differ between traced passes: in/out/retracted %d/%d/%d, first pass %d/%d/%d",
					a.in, a.out, a.retracted, b.in, b.out, b.retracted))
				break
			}
		}
	}
	rep.Correct = len(failures) == 0
	for _, err := range failures {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", w.name, err)
	}

	m := map[string]float64{}
	med := func(f func(tracedPass) float64) float64 { return medianBy(tps, f) }
	perRec := func(ns int64, tp tracedPass) float64 { return float64(ns) / float64(tp.res.records) }
	sharded := w.shards > 1

	m["trace.parse_ns_per_rec"] = med(func(tp tracedPass) float64 { return perRec(tp.times.self[spanReadCSV], tp) })
	m["operator.busy_share"] = med(func(tp tracedPass) float64 { return float64(tp.ops.procNanos) / float64(tp.res.wall) })
	m["operator.max_query_share"] = med(func(tp tracedPass) float64 {
		if tp.ops.procNanos == 0 {
			return 0
		}
		return float64(tp.ops.maxQueryNs) / float64(tp.ops.procNanos)
	})
	m["operator.in"] = med(func(tp tracedPass) float64 { return float64(tp.ops.in) })
	m["operator.out"] = med(func(tp tracedPass) float64 { return float64(tp.ops.out) })
	m["operator.retracted"] = med(func(tp tracedPass) float64 { return float64(tp.ops.retracted) })
	m["operator.touched_per_tuple"] = med(func(tp tracedPass) float64 { return perRec(tp.ops.touched, tp) })
	m["operator.state_tuples"] = med(func(tp tracedPass) float64 { return float64(tp.ops.state) })
	// exec.self is the ingest calls' time that is neither an operator's
	// Process nor the subscriber: routing, window admission, eager and lazy
	// expiry, fan-out, view folds, instrumentation. On the sharded engine
	// the operators run on the workers, so what is left of the producer's
	// ingest calls after the time it was blocked on full queues is its own
	// routing and hand-off work.
	execSelf := func(tp tracedPass) int64 {
		if sharded {
			return tp.times.total[spanIngest] - tp.blocked
		}
		return tp.times.self[spanIngest] - tp.ops.procNanos
	}
	m["exec.self_ns_per_tuple"] = med(func(tp tracedPass) float64 { return perRec(execSelf(tp), tp) })
	m["exec.push_p99_us"] = medianBy(base.passes, func(p passResult) float64 { return float64(p.calls.p99) / 1e3 })
	m["exec.shard_blocked_share"] = med(func(tp tracedPass) float64 { return float64(tp.blocked) / float64(tp.res.wall) })
	m["unaccounted_pct"] = med(func(tp tracedPass) float64 {
		return 100 * float64(tp.times.self[spanPass]) / float64(tp.times.total[spanPass])
	})
	m["trace_overhead_pct"] = 100 * (legTPS(base)/legTPS(traced) - 1)
	if bare != nil {
		m["obs.overhead_pct"] = 100 * (legTPS(bare)/legTPS(base) - 1)
	}
	if oneShard != nil {
		m["exec.shard_speedup"] = legTPS(base) / legTPS(oneShard)
	} else if sharded {
		rep.Warnings = append(rep.Warnings, "exec.shard_speedup refused: one CPU cannot show a parallel speed-up (reported as 0)")
	}
	m["plan.compile_ms"] = ms64(st.stage["compile"])
	if w.registry {
		m["checkpoint.write_ms"] = med(func(tp tracedPass) float64 { return float64(tp.times.self[spanCheckpoint]) / 1e6 })
		m["checkpoint.bytes"] = float64(tps[0].res.ckptBytes)
		if m["checkpoint.restore_ms"], err = restoreMs(w, traced.sys); err != nil {
			return nil, nil, err
		}
	}

	mid := tps[len(tps)/2]
	est, err := replays(w, last, prime, traced.sys.sub.captured, mid.res.emitted+mid.res.retracted, m)
	if err != nil {
		return nil, nil, err
	}

	rep.Metrics = map[string]value{}
	for _, d := range perLayer() {
		rep.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	rep.Ops = mid.ops.rows
	rep.Layers = layerTable(mid, execSelf(mid), sharded, est)
	if u := m["unaccounted_pct"]; u > 15 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("unaccounted_pct is %.1f: more than 15 %% of the pass lies outside every span", u))
	}
	if s := m["operator.max_query_share"]; len(w.queries) > 1 && s > 0.40 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("one query takes %.0f %% of operator time; the workload is meant to spread it (limit 40 %%)", 100*s))
	}
	return rep, rec.spans, nil
}

// legTPS is a leg's median tuples per second over its timed passes.
func legTPS(l *leg) float64 {
	return medianBy(l.passes, func(p passResult) float64 { return float64(p.records) / p.wall.Seconds() })
}

// restoreMs checkpoints the registry once into memory and times a restore
// into a freshly built one.
func restoreMs(w workload, s *system) (float64, error) {
	var buf bytes.Buffer
	if err := s.reg.Checkpoint(&buf); err != nil {
		return 0, err
	}
	fresh, err := build(w, legCfg{}, false)
	if err != nil {
		return 0, err
	}
	defer fresh.ing.Close()
	t0 := time.Now()
	if err := fresh.reg.Restore(&buf); err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	return ms64(time.Since(t0)), nil
}

// estimates are the replayed costs scaled to one pass, in ns.
type estimates struct {
	colbuild, admit, expire, viewfold int64
	codec                             string // checkpoint codec over the views' rows
}

// replays runs the layer replays on the last pass's input and the captured
// delta stream, fills their metrics into m, and returns the per-pass
// estimates the layer table prints beside the measured self times. deltas is
// how many output tuples the views folded during the pass.
func replays(w workload, last passInput, prime, captured [][]repro.Tuple, deltas int64, m map[string]float64) (estimates, error) {
	var est estimates
	arrivals := last.arrivals
	if w.grain == grainCSV {
		// The pass's arrivals exist only as CSV; parse them back (untimed).
		for _, chunk := range last.chunks {
			recs, err := trace.ReadCSV(bytes.NewReader(chunk))
			if err != nil {
				return est, err
			}
			for _, r := range recs {
				arrivals = append(arrivals, repro.Arrival{Stream: r.Link, TS: r.TS, Vals: r.Vals})
			}
		}
	}
	runs := replay.Runs(arrivals, w.batch)
	byStream := make(map[int][]replay.Run)
	for _, r := range runs {
		byStream[r.Stream] = append(byStream[r.Stream], r)
	}

	if w.columnar {
		t := replay.ColBuild(trace.Schema(), runs)
		m["tuple.colbuild_ns_per_row"] = t.PerOp()
		est.colbuild = t.Nanos
	}

	// One window per distinct source of the physical plans: queries that
	// agree on stream, spec and materialisation share it on a registry.
	type source struct {
		stream       int
		spec         window.Spec
		materialized bool
	}
	seen := map[source]bool{}
	var admit, expire, folds replay.Timing
	for qi, q := range w.queries {
		phys, err := q.physical(w.links)
		if err != nil {
			return est, err
		}
		for _, s := range phys.Sources {
			src := source{s.StreamID, s.Window.Spec(), s.Window.Materialized()}
			if seen[src] {
				continue
			}
			seen[src] = true
			a, e, err := replay.Window(src.spec, src.materialized, w.columnar, byStream[src.stream])
			if err != nil {
				return est, err
			}
			admit, expire = admit.Plus(a), expire.Plus(e)
		}
		f, err := replay.ViewFold(phys.View, prime[qi], captured[qi])
		if err != nil {
			return est, err
		}
		folds = folds.Plus(f)
	}
	m["window.admit_ns_per_tuple"] = admit.PerOp()
	m["window.expire_ns_per_tuple"] = expire.PerOp()
	m["exec.viewfold_ns_per_delta"] = folds.PerOp()
	est.admit, est.expire = admit.Nanos, expire.Nanos
	// The capture is capped; scale its cost per delta to the pass's deltas.
	est.viewfold = int64(folds.PerOp() * float64(deltas))

	if w.registry {
		// The registry checkpoint holds windows, operator state and views;
		// the views' rows are the part the benchmark can reach, so the
		// codec's cost per row is measured on them.
		var rows []tuple.Tuple
		for _, p := range prime {
			rows = append(rows, p...)
		}
		enc, dec, size, err := replay.Checkpoint(rows)
		if err != nil {
			return est, err
		}
		est.codec = fmt.Sprintf("codec on the views' %d rows: encode %.0f + decode %.0f ns/row, %d bytes",
			len(rows), enc.PerOp(), dec.PerOp(), size)
	}

	// State buffers: link 0's tuples, keyed on src like every join,
	// negation and distinct of the suite, at the workload's window.
	var tuples []tuple.Tuple
	for _, r := range byStream[0] {
		for _, vals := range r.Rows {
			tuples = append(tuples, tuple.New(r.TS, vals...))
		}
	}
	for _, k := range replay.Kinds {
		ins, probe, exp := replay.Statebuf(k.Kind, []int{trace.ColSrc}, w.window, tuples)
		m["statebuf."+k.Name+".insert_ns"] = ins.PerOp()
		m["statebuf."+k.Name+".probe_ns"] = probe.PerOp()
		m["statebuf."+k.Name+".expire_ns"] = exp.PerOp()
	}
	return est, nil
}

// layerTable lays one traced pass out by layer. The indented rows split the
// ingest calls' self time with the engine's own per-operator clock.
func layerTable(tp tracedPass, execSelf int64, sharded bool, est estimates) []layerRow {
	pass := tp.times.total[spanPass]
	row := func(name string, ns int64, estimate string) layerRow {
		return layerRow{Layer: name, SelfMs: float64(ns) / 1e6, SharePct: 100 * float64(ns) / float64(pass), Estimate: estimate}
	}
	ms := func(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }
	rows := []layerRow{
		row(spanReadCSV.String(), tp.times.self[spanReadCSV], ""),
		row(spanConvert.String(), tp.times.self[spanConvert], ""),
		row(spanIngest.String(), tp.times.self[spanIngest], ""),
	}
	estimate := fmt.Sprintf("tuple.colbuild %s + window.admit %s + window.expire %s + exec.viewfold %s ms",
		ms(est.colbuild), ms(est.admit), ms(est.expire), ms(est.viewfold))
	if sharded {
		rows = append(rows,
			row("  blocked on shard queues", tp.blocked, ""),
			row("  exec.self (routing, hand-off)", execSelf, ""),
			row("  (workers) operator Σ ProcNanos", tp.ops.procNanos, "overlaps the producer"),
			row("  (workers) subscriber.OnEmit", tp.emitNs, "overlaps the producer"))
	} else {
		rows = append(rows,
			row("  operator Σ ProcNanos", tp.ops.procNanos, ""),
			row("  exec.self (the rest)", execSelf, estimate),
			row(spanOnEmit.String(), tp.times.self[spanOnEmit], ""))
	}
	return append(rows,
		row(spanCheckpoint.String(), tp.times.self[spanCheckpoint], est.codec),
		row(spanSync.String(), tp.times.self[spanSync], ""),
		row("unaccounted", tp.times.self[spanPass], ""),
		row("pass", pass, ""))
}

// printLayers prints the traced tables of a workload report.
func printLayers(w io.Writer, r *workloadReport) {
	if len(r.Layers) == 0 {
		return
	}
	fmt.Fprintf(w, "   layer table (median traced pass; self = span minus its children):\n")
	fmt.Fprintf(w, "   %-36s %10s %8s  %s\n", "layer", "self ms", "share", "replayed ns/op × engine count")
	for _, l := range r.Layers {
		fmt.Fprintf(w, "   %-36s %10.1f %7.1f%%  %s\n", l.Layer, l.SelfMs, l.SharePct, l.Estimate)
	}
	fmt.Fprintf(w, "   operators (same pass; busy share is ProcNanos / pass wall):\n")
	fmt.Fprintf(w, "   %-44s %-5s %8s %10s %10s %10s %10s %8s\n",
		"operator.busy_share.<class>#<id>", "edge", "share", "in", "out", "retracted", "touch/tup", "state")
	for _, o := range r.Ops {
		name := o.Query + ":" + o.Name
		if o.SharedBy > 1 {
			name += fmt.Sprintf(" (×%d queries)", o.SharedBy)
		}
		fmt.Fprintf(w, "   %-44s %-5s %7.1f%% %10d %10d %10d %10.2f %8d\n",
			name, o.Pattern, 100*o.BusyShare, o.In, o.Out, o.Retracted, o.TouchedPerTuple, o.StateTuples)
	}
}
