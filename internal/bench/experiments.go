package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Scale selects experiment sizing: Quick keeps every sweep point small
// enough for `go test -bench`; Full runs the paper-scale window range
// (Section 6.1: 2000 to beyond 100000 time units).
type Scale int

const (
	// Quick is the CI-friendly sizing.
	Quick Scale = iota
	// Full is the paper-scale sizing.
	Full
)

// Variant is one (strategy, options) column in a sweep table.
type Variant struct {
	Name  string
	Strat plan.Strategy
	Opts  plan.Options
}

// StdVariants are the three techniques of Section 6.
func StdVariants() []Variant {
	return []Variant{
		{"NT", plan.NT, plan.Options{}},
		{"DIRECT", plan.Direct, plan.Options{}},
		{"UPA", plan.UPA, plan.Options{}},
	}
}

// STRVariants adds the two UPA storage choices for strict results
// (Section 5.3.2) to the standard techniques.
func STRVariants() []Variant {
	return []Variant{
		{"NT", plan.NT, plan.Options{}},
		{"DIRECT", plan.Direct, plan.Options{}},
		{"UPA-part", plan.UPA, plan.Options{STR: plan.STRPartitioned}},
		{"UPA-hash", plan.UPA, plan.Options{STR: plan.STRHash}},
	}
}

// Table is one rendered experiment result. The json tags are the contract
// of `upabench -json` result files.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`
}

// Experiment regenerates one table/figure of the evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) ([]Table, error)
}

func windowsFor(q Query, s Scale) []int64 {
	if s == Quick {
		return []int64{2000, 5000}
	}
	switch q {
	case Q1Telnet, Q3Negation, Q3Disjoint, Q5PushDown, Q5PullUp:
		// The unselective predicate (telnet) multiplies state, and DIRECT's
		// per-arrival list scans make eager operators quadratic in the
		// window; the paper likewise notes the window range (in bytes) is
		// query-dependent.
		return []int64{2000, 5000, 10000, 20000}
	default:
		return []int64{2000, 5000, 10000, 20000, 50000}
	}
}

// sweep runs q across windows × variants and renders time and state tables.
func sweep(id, title string, q Query, variants []Variant, s Scale) ([]Table, error) {
	windows := windowsFor(q, s)
	timeTab := Table{
		ID:    id,
		Title: title + " — execution time (ms per 1000 tuples) with allocation rate",
		// Each variant carries its time column plus the run's heap
		// allocation rate (objects and bytes per input tuple), so result
		// files track the allocation trajectory alongside wall-clock.
		Columns: []string{"window"},
	}
	for _, v := range variants {
		timeTab.Columns = append(timeTab.Columns, v.Name, v.Name+" allocs/op", v.Name+" B/op")
	}
	stateTab := Table{
		ID:      id + "-state",
		Title:   title + " — peak stored tuples",
		Columns: append([]string{"window"}, variantNames(variants)...),
	}
	var lastResults []Result // largest-window run per variant
	for _, w := range windows {
		timeRow := []string{fmt.Sprint(w)}
		stateRow := []string{fmt.Sprint(w)}
		lastResults = lastResults[:0]
		for _, v := range variants {
			res, err := Run(q, RunConfig{Strategy: v.Strat, Opts: v.Opts, Window: w})
			if err != nil {
				return nil, fmt.Errorf("%s %s w=%d: %w", id, v.Name, w, err)
			}
			timeRow = append(timeRow, fmt.Sprintf("%.3f", res.MsPerK),
				fmt.Sprintf("%.2f", res.AllocsPerOp()), fmt.Sprintf("%.0f", res.BytesPerOp()))
			stateRow = append(stateRow, fmt.Sprint(res.MaxState))
			lastResults = append(lastResults, res)
		}
		timeTab.Rows = append(timeTab.Rows, timeRow)
		stateTab.Rows = append(stateTab.Rows, stateRow)
	}
	metTab := metricsTable(id, title, windows[len(windows)-1], variants, lastResults)
	opsTab := opsTable(id, title, windows[len(windows)-1], variants, lastResults)
	return []Table{timeTab, stateTab, metTab, opsTab}, nil
}

// metricsTable embeds each variant's end-of-run engine metric snapshot —
// the registry-backed counters behind the run — for the sweep's largest
// window, one metric per row.
func metricsTable(id, title string, window int64, variants []Variant, results []Result) Table {
	tab := Table{
		ID:      id + "-metrics",
		Title:   fmt.Sprintf("%s — engine metric snapshot (window %d)", title, window),
		Columns: append([]string{"metric"}, variantNames(variants)...),
		Notes: "Counters from the engine's metrics registry at end of run (upaquery -metrics-addr exposes the same series live). " +
			"Delta-latency rows need a timed engine and read 0 on bare runs; run with -metrics-addr to instrument every run.",
	}
	rows := []struct{ label, name string }{
		{"arrivals", exec.MetricArrivals},
		{"emitted", exec.MetricEmitted},
		{"retracted", exec.MetricRetracted},
		{"window negatives", exec.MetricWindowNegatives},
		{"eager passes", exec.MetricEagerPasses},
		{"lazy passes", exec.MetricLazyPasses},
		{"view rows expired", exec.MetricViewExpired},
	}
	for _, r := range rows {
		row := []string{r.label}
		for _, res := range results {
			row = append(row, fmt.Sprint(res.Metrics.Counters[r.name]))
		}
		tab.Rows = append(tab.Rows, row)
	}
	peak := []string{"peak state tuples"}
	for _, res := range results {
		peak = append(peak, fmt.Sprint(res.Metrics.Gauges[exec.MetricStateTuplesPeak]))
	}
	tab.Rows = append(tab.Rows, peak)
	// Delta-latency percentiles and the conformance verdict ride along so a
	// result file records responsiveness next to throughput.
	latRows := []struct {
		label string
		get   func(Result) int64
	}{
		{"delta latency p50 ns (pos)", func(r Result) int64 { return r.LatencyPos.P50 }},
		{"delta latency p95 ns (pos)", func(r Result) int64 { return r.LatencyPos.P95 }},
		{"delta latency p99 ns (pos)", func(r Result) int64 { return r.LatencyPos.P99 }},
		{"delta latency max ns (pos)", func(r Result) int64 { return r.LatencyPos.Max }},
		{"delta latency p99 ns (neg)", func(r Result) int64 { return r.LatencyNeg.P99 }},
		{"pattern violations", func(r Result) int64 { return r.Violations }},
	}
	for _, lr := range latRows {
		row := []string{lr.label}
		for _, res := range results {
			row = append(row, fmt.Sprint(lr.get(res)))
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab
}

// opsTable embeds each variant's per-operator profile (the EXPLAIN ANALYZE
// counters) for the sweep's largest window, one row per (variant, operator)
// in plan pre-order.
func opsTable(id, title string, window int64, variants []Variant, results []Result) Table {
	tab := Table{
		ID:      id + "-ops",
		Title:   fmt.Sprintf("%s — per-operator profile (window %d)", title, window),
		Columns: []string{"variant", "id", "operator", "edge", "in+", "in-", "out+", "out-", "expired", "state", "touched"},
		Notes:   "Plan pre-order per variant (root id=0); the same counters upaquery -analyze and /debug/plan render live.",
	}
	for i, res := range results {
		for _, p := range res.Ops {
			tab.Rows = append(tab.Rows, []string{
				variants[i].Name, fmt.Sprint(p.ID), p.Class, p.Pattern,
				fmt.Sprint(p.InPos), fmt.Sprint(p.InNeg),
				fmt.Sprint(p.Emitted), fmt.Sprint(p.Retracted),
				fmt.Sprint(p.Expired), fmt.Sprint(p.StateTuples), fmt.Sprint(p.Touched),
			})
		}
	}
	return tab
}

func variantNames(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// Experiments returns the full experiment index of DESIGN.md.
func Experiments() []Experiment {
	return []Experiment{
		{"e1a", "E1a: Query 1, protocol=ftp (selective join)", func(s Scale) ([]Table, error) {
			return sweep("e1a", "Query 1 (ftp)", Q1FTP, StdVariants(), s)
		}},
		{"e1b", "E1b: Query 1, protocol=telnet (10x results)", func(s Scale) ([]Table, error) {
			return sweep("e1b", "Query 1 (telnet)", Q1Telnet, StdVariants(), s)
		}},
		{"e2a", "E2a: Query 2, distinct source IPs (δ operator)", func(s Scale) ([]Table, error) {
			return sweep("e2a", "Query 2 (distinct src)", Q2Distinct, StdVariants(), s)
		}},
		{"e2b", "E2b: Query 2, distinct src-dst pairs", func(s Scale) ([]Table, error) {
			return sweep("e2b", "Query 2 (distinct pairs)", Q2Pairs, StdVariants(), s)
		}},
		{"e3a", "E3a: Query 3, negation with overlapping values", func(s Scale) ([]Table, error) {
			return sweep("e3a", "Query 3 (overlapping)", Q3Negation, STRVariants(), s)
		}},
		{"e3b", "E3b: Query 3, negation with disjoint values", func(s Scale) ([]Table, error) {
			return sweep("e3b", "Query 3 (disjoint)", Q3Disjoint, STRVariants(), s)
		}},
		{"e4", "E4: Query 4, distinct + join", func(s Scale) ([]Table, error) {
			return sweep("e4", "Query 4 (distinct join)", Q4DistinctJoin, StdVariants(), s)
		}},
		{"e5a", "E5a: Query 5, negation pull-up (Figure 6 left)", func(s Scale) ([]Table, error) {
			return sweep("e5a", "Query 5 (pull-up)", Q5PullUp, STRVariants(), s)
		}},
		{"e5b", "E5b: Query 5, negation push-down (Figure 6 right)", func(s Scale) ([]Table, error) {
			return sweep("e5b", "Query 5 (push-down)", Q5PushDown, STRVariants(), s)
		}},
		{"e6", "E6: partition-count sweep (Section 5.3.2 trade-off)", runPartitionSweep},
		{"e7", "E7: lazy-interval sweep (Section 6.1)", runLazySweep},
		{"e8", "E8: cost model vs measurement", runCostRanking},
		{"e9", "E9: shard-count sweep (key-partitioned execution)", runShardSweep},
		{"e10", "E10: recovery — checkpoint size/latency vs trace replay", runRecovery},
		{"e11", "E11: multi-query sharing — N Query 1 variants on one registry vs N engines", runMultiQuery},
		{"e12", "E12: columnar stateful tail — row vs columnar batched ingest", runColumnarTail},
	}
}

// runColumnarTail measures the stateful-tail columnar kernels end to end:
// the group-by and negation queries run with batched ingest twice per
// strategy — pinned to the row batch path (NoColumnar) and on the columnar
// kernels — over the identical trace. The columnar leg is verified to have
// actually run columnar, to finish with the same answer cardinality, and to
// report zero update-pattern violations.
func runColumnarTail(s Scale) ([]Table, error) {
	w := int64(20000)
	if s == Quick {
		w = 5000
	}
	tab := Table{
		ID:    "e12",
		Title: fmt.Sprintf("Columnar stateful tail, window %d, batch %d — row vs columnar batched ingest", w, colTailBatch),
		Columns: []string{"query", "variant", "row ms/1k", "col ms/1k", "speedup",
			"row allocs/op", "col allocs/op", "row B/op", "col B/op", "final results"},
		Notes: "Both legs ingest the identical trace in PushBatch chunks; the row leg pins " +
			"Config.NoColumnar, the columnar leg runs the group-by/distinct/negate kernels " +
			"(verified engaged, zero pattern violations, equal final view cardinality). " +
			"End-to-end ratios are bounded by the shared state machine: the kernels drive the " +
			"same event rules and buffer mutations as the row path, so the speedup here is the " +
			"per-run overhead they remove (key derivation from vectors, one map touch per " +
			"arrival, mask-packed selections), not the kernel-grain gap — " +
			"BenchmarkGroupByKernel/BenchmarkNegateKernel in internal/operator isolate that.",
	}
	for _, q := range []Query{Q6GroupBy, Q3Negation} {
		for _, v := range StdVariants() {
			base := RunConfig{Strategy: v.Strat, Opts: v.Opts, Window: w, Batch: colTailBatch}
			rowCfg := base
			rowCfg.NoColumnar = true
			row, err := Run(q, rowCfg)
			if err != nil {
				return nil, fmt.Errorf("e12 %v/%s row: %w", q, v.Name, err)
			}
			col, err := Run(q, base)
			if err != nil {
				return nil, fmt.Errorf("e12 %v/%s col: %w", q, v.Name, err)
			}
			if row.Columnar {
				return nil, fmt.Errorf("e12 %v/%s: NoColumnar leg ran columnar", q, v.Name)
			}
			if !col.Columnar {
				return nil, fmt.Errorf("e12 %v/%s: columnar leg fell back to the row path", q, v.Name)
			}
			if col.Violations != 0 {
				return nil, fmt.Errorf("e12 %v/%s: %d pattern violations on the columnar path", q, v.Name, col.Violations)
			}
			if col.FinalResults != row.FinalResults {
				return nil, fmt.Errorf("e12 %v/%s: final results diverge: col %d vs row %d",
					q, v.Name, col.FinalResults, row.FinalResults)
			}
			tab.Rows = append(tab.Rows, []string{
				q.String(), v.Name,
				fmt.Sprintf("%.3f", row.MsPerK), fmt.Sprintf("%.3f", col.MsPerK),
				fmt.Sprintf("%.2fx", row.MsPerK/col.MsPerK),
				fmt.Sprintf("%.2f", row.AllocsPerOp()), fmt.Sprintf("%.2f", col.AllocsPerOp()),
				fmt.Sprintf("%.0f", row.BytesPerOp()), fmt.Sprintf("%.0f", col.BytesPerOp()),
				fmt.Sprint(col.FinalResults),
			})
		}
	}
	return []Table{tab}, nil
}

// colTailBatch is e12's ingest chunk size — the same 256-arrival granularity
// the sharded feeder and the exec-level ingest benchmarks use.
const colTailBatch = 256

// runRecovery measures the checkpoint subsystem's recovery trade-off per
// strategy: process half the trace, checkpoint to memory (size and write
// latency), then recover two ways — restore the checkpoint into a fresh
// engine vs replay the trace prefix from scratch — and verify all recovered
// engines finish the trace in agreement with the uninterrupted run.
func runRecovery(s Scale) ([]Table, error) {
	w := int64(20000)
	if s == Quick {
		w = 5000
	}
	q := Q1FTP
	tab := Table{
		ID:      "e10",
		Title:   fmt.Sprintf("Recovery, Query 1 (ftp), window %d — checkpoint/restore vs replay", w),
		Columns: []string{"variant", "ckpt bytes", "ckpt ms", "restore ms", "replay ms", "replay/restore"},
		Notes: "Half the trace is processed and checkpointed to memory; recovery restores it into a " +
			"fresh engine vs replaying the prefix. Every recovered engine then finishes the trace and " +
			"must match the uninterrupted run's answer (verified, not shown). Restore cost scales with " +
			"live state, replay with the prefix length, so the ratio grows with trace length.",
	}
	newEngine := func(v Variant) (*exec.Engine, error) {
		root := BuildPlan(q, w)
		if err := plan.Annotate(root, PlanStats(q, 1000)); err != nil {
			return nil, err
		}
		phys, err := plan.Build(root, v.Strat, v.Opts)
		if err != nil {
			return nil, err
		}
		lazy := w * 5 / 100
		if lazy < 1 {
			lazy = 1
		}
		return exec.New(phys, exec.Config{EagerInterval: 1, LazyInterval: lazy})
	}
	links := q.Links()
	gen := trace.NewGenerator(trace.Config{
		Links: links, Tuples: int(2*w) * links, Seed: 42,
		SrcHosts: 1000, SrcSkew: q.SrcSkew(), DisjointSources: q.DisjointSources(),
	})
	var recs []trace.Record
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	half := len(recs) / 2
	feed := func(e *exec.Engine, rs []trace.Record) error {
		for _, r := range rs {
			if err := e.Push(r.Link, r.TS, r.Vals...); err != nil {
				return err
			}
		}
		return nil
	}
	for _, v := range StdVariants() {
		a, err := newEngine(v)
		if err != nil {
			return nil, fmt.Errorf("e10 %s: %w", v.Name, err)
		}
		if err := feed(a, recs[:half]); err != nil {
			return nil, fmt.Errorf("e10 %s: %w", v.Name, err)
		}
		var ckpt bytes.Buffer
		t0 := time.Now()
		if err := a.Checkpoint(&ckpt); err != nil {
			return nil, fmt.Errorf("e10 %s: checkpoint: %w", v.Name, err)
		}
		ckptMs := float64(time.Since(t0).Nanoseconds()) / 1e6

		restored, err := newEngine(v)
		if err != nil {
			return nil, fmt.Errorf("e10 %s: %w", v.Name, err)
		}
		t0 = time.Now()
		if err := restored.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
			return nil, fmt.Errorf("e10 %s: restore: %w", v.Name, err)
		}
		restoreMs := float64(time.Since(t0).Nanoseconds()) / 1e6

		replayed, err := newEngine(v)
		if err != nil {
			return nil, fmt.Errorf("e10 %s: %w", v.Name, err)
		}
		t0 = time.Now()
		if err := feed(replayed, recs[:half]); err != nil {
			return nil, fmt.Errorf("e10 %s: replay: %w", v.Name, err)
		}
		replayMs := float64(time.Since(t0).Nanoseconds()) / 1e6

		// All three engines finish the trace; the recovered ones must agree
		// with the uninterrupted run on the answer and the output totals.
		for _, e := range []*exec.Engine{a, restored, replayed} {
			if err := feed(e, recs[half:]); err != nil {
				return nil, fmt.Errorf("e10 %s: finish: %w", v.Name, err)
			}
			if err := e.Sync(); err != nil {
				return nil, fmt.Errorf("e10 %s: sync: %w", v.Name, err)
			}
		}
		for _, e := range []*exec.Engine{restored, replayed} {
			if e.View().Len() != a.View().Len() || e.Stats().Emitted != a.Stats().Emitted {
				return nil, fmt.Errorf("e10 %s: recovered run diverges: view %d/%d, emitted %d/%d",
					v.Name, e.View().Len(), a.View().Len(), e.Stats().Emitted, a.Stats().Emitted)
			}
		}
		ratio := 0.0
		if restoreMs > 0 {
			ratio = replayMs / restoreMs
		}
		tab.Rows = append(tab.Rows, []string{
			v.Name, fmt.Sprint(ckpt.Len()), fmt.Sprintf("%.3f", ckptMs),
			fmt.Sprintf("%.3f", restoreMs), fmt.Sprintf("%.3f", replayMs), fmt.Sprintf("%.1fx", ratio),
		})
	}
	return []Table{tab}, nil
}

// shardSweepCounts are the shard counts experiment e9 sweeps;
// `upabench -shards` overrides them.
var shardSweepCounts = []int{1, 2, 4, 8}

// SetShardSweep overrides the e9 shard-count sweep points.
func SetShardSweep(counts []int) {
	if len(counts) > 0 {
		shardSweepCounts = counts
	}
}

func runShardSweep(s Scale) ([]Table, error) {
	w := int64(20000)
	if s == Quick {
		w = 5000
	}
	tab := Table{
		ID:      "e9",
		Title:   fmt.Sprintf("Shard sweep, Query 1 (ftp), window %d — UPA, batched ingest", w),
		Columns: []string{"shards", "ms/1k tuples", "tuples/s", "speedup", "allocs/op", "B/op", "peak state"},
		Notes: "Arrivals are routed by the join key's hash across independent engine shards " +
			"(DESIGN.md §9) and fed in batches of 256. Speedup is relative " +
			"to the 1-shard row and needs as many idle cores as shards to materialize; on " +
			"fewer cores the parallel rows mostly measure coordination overhead.",
	}
	base := 0.0
	for _, shards := range shardSweepCounts {
		res, err := Run(Q1FTP, RunConfig{Strategy: plan.UPA, Window: w, Shards: shards})
		if err != nil {
			return nil, err
		}
		if res.ShardFallback != "" {
			return nil, fmt.Errorf("e9: Q1 unexpectedly not partitionable: %s", res.ShardFallback)
		}
		perSec := float64(res.Tuples) / res.Elapsed.Seconds()
		if base == 0 {
			base = res.MsPerK // speedup is relative to the first sweep point
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(shards), fmt.Sprintf("%.3f", res.MsPerK), fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%.2fx", base/res.MsPerK),
			fmt.Sprintf("%.2f", res.AllocsPerOp()), fmt.Sprintf("%.0f", res.BytesPerOp()),
			fmt.Sprint(res.MaxState),
		})
	}
	return []Table{tab}, nil
}

func runPartitionSweep(s Scale) ([]Table, error) {
	w := int64(20000)
	if s == Quick {
		w = 5000
	}
	tab := Table{
		ID:      "e6",
		Title:   fmt.Sprintf("Partition sweep, Query 1 (ftp), window %d — UPA time and state", w),
		Columns: []string{"partitions", "ms/1k tuples", "allocs/op", "B/op", "peak state", "touched"},
		Notes:   "More partitions cut per-expiration scans but add per-partition overhead (Section 5.3.2).",
	}
	for _, parts := range []int{1, 2, 5, 10, 20, 50, 100} {
		res, err := Run(Q1FTP, RunConfig{Strategy: plan.UPA, Opts: plan.Options{Partitions: parts}, Window: w})
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(parts), fmt.Sprintf("%.3f", res.MsPerK),
			fmt.Sprintf("%.2f", res.AllocsPerOp()), fmt.Sprintf("%.0f", res.BytesPerOp()),
			fmt.Sprint(res.MaxState), fmt.Sprint(res.Touched),
		})
	}
	return []Table{tab}, nil
}

func runLazySweep(s Scale) ([]Table, error) {
	w := int64(20000)
	if s == Quick {
		w = 5000
	}
	tab := Table{
		ID:      "e7",
		Title:   fmt.Sprintf("Lazy-interval sweep, Query 1 (ftp), window %d — UPA", w),
		Columns: []string{"lazy % of window", "ms/1k tuples", "allocs/op", "B/op", "peak state"},
		Notes:   "Larger intervals trade memory (expired tuples linger) for time; Section 6.1 reports 'slightly better performance'.",
	}
	for _, pct := range []int64{1, 2, 5, 10, 25, 50} {
		res, err := Run(Q1FTP, RunConfig{Strategy: plan.UPA, Window: w, LazyIntervalPct: pct})
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(pct), fmt.Sprintf("%.3f", res.MsPerK),
			fmt.Sprintf("%.2f", res.AllocsPerOp()), fmt.Sprintf("%.0f", res.BytesPerOp()),
			fmt.Sprint(res.MaxState),
		})
	}
	return []Table{tab}, nil
}

func runCostRanking(s Scale) ([]Table, error) {
	w := int64(10000)
	if s == Quick {
		w = 3000
	}
	tab := Table{
		ID:      "e8",
		Title:   fmt.Sprintf("Cost model (Section 5.4.1) predicted vs measured best strategy, window %d", w),
		Columns: []string{"query", "predicted", "measured", "agree"},
	}
	queries := []Query{Q1FTP, Q2Distinct, Q3Negation, Q4DistinctJoin, Q5PullUp}
	for _, q := range queries {
		root := BuildPlan(q, w)
		if err := plan.Annotate(root, PlanStats(q, 0)); err != nil {
			return nil, err
		}
		bestPred, bestPredCost := "", 0.0
		bestMeas, bestMeasMs := "", 0.0
		for _, v := range StdVariants() {
			c := plan.Cost(root, v.Strat)
			if bestPred == "" || c < bestPredCost {
				bestPred, bestPredCost = v.Name, c
			}
			res, err := Run(q, RunConfig{Strategy: v.Strat, Opts: v.Opts, Window: w})
			if err != nil {
				return nil, err
			}
			if bestMeas == "" || res.MsPerK < bestMeasMs {
				bestMeas, bestMeasMs = v.Name, res.MsPerK
			}
		}
		tab.Rows = append(tab.Rows, []string{q.String(), bestPred, bestMeas, fmt.Sprint(bestPred == bestMeas)})
	}
	return []Table{tab}, nil
}

// runMultiQuery measures multi-query shared execution: N predicate
// variants of Query 1 — the shared ftp join with a private payload
// threshold on top, a distinct cutoff per variant — registered on one
// registry versus run on N independent engines. The registry deduplicates
// the windows, selections, and join (everything below the private top
// select), so each arrival pays the join once instead of N times. Every
// registry view must stay bag-equal to its standalone twin.
func runMultiQuery(s Scale) ([]Table, error) {
	w := int64(2000)
	counts := []int{1, 4, 16, 64}
	if s == Quick {
		w = 500
		counts = []int{1, 4, 8}
	}
	q := Q1FTP
	lazy := w * 5 / 100
	if lazy < 1 {
		lazy = 1
	}
	cfg := exec.Config{EagerInterval: 1, LazyInterval: lazy}
	// Variant i of n keeps rows with payload above a cutoff spread across
	// the lower half of the payload domain ([0, 1<<14)), so every variant
	// has a distinct predicate digest (a private plan node) but passes at
	// least half the join output.
	variant := func(i, n int) (*plan.Physical, error) {
		cut := int64(i) * (1 << 13) / int64(n)
		root := plan.NewSelect(BuildPlan(q, w), operator.ColConst{
			Col: trace.ColPayload, Op: operator.GT, Val: tuple.Int(cut),
			Sel: 1 - float64(cut)/float64(1<<14),
		})
		if err := plan.Annotate(root, PlanStats(q, 1000)); err != nil {
			return nil, err
		}
		return plan.Build(root, plan.UPA, plan.Options{})
	}
	links := q.Links()
	gen := trace.NewGenerator(trace.Config{
		Links: links, Tuples: int(2*w) * links, Seed: 42,
		SrcHosts: 1000, SrcSkew: q.SrcSkew(), DisjointSources: q.DisjointSources(),
	})
	var recs []trace.Record
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	// One untimed pass warms the process (heap growth, page faults) so the
	// first timed point doesn't read artificially slow; a single-query
	// registry and a standalone engine are the same code path (exec.New is a
	// one-query registry), so N=1 must measure ~1.0x.
	warm := exec.NewMulti(cfg)
	if phys, err := variant(0, 1); err == nil {
		if _, err := warm.RegisterQuery(exec.QuerySpec{Name: "warm", Phys: phys}); err == nil {
			for _, r := range recs {
				if err := warm.Push(r.Link, r.TS, r.Vals...); err != nil {
					break
				}
			}
			_ = warm.Sync()
		}
	}
	tab := Table{
		ID:    "e11",
		Title: fmt.Sprintf("Multi-query sharing, Query 1 (ftp) + payload cutoffs, window %d, UPA", w),
		Columns: []string{"N", "reg ktup/s", "indep ktup/s", "speedup",
			"reg state", "indep state", "reg ckpt B", "indep ckpt B", "share ratio"},
		Notes: "N payload-threshold variants of Query 1 on one registry vs N independent engines fed " +
			"the same trace. Sub-plan sharing folds the N copies of the windows, ftp selections, and " +
			"join into one physical instance each; only the top threshold select stays per-query. " +
			"State and checkpoint bytes count live stored tuples once per physical node, so they stay " +
			"near-flat on the registry while growing linearly with N on independent engines. Each " +
			"registry view is verified bag-equal to its standalone twin (not shown). Share ratio is " +
			"plan nodes per live physical node (1 = no sharing).",
	}
	for _, n := range counts {
		reg := exec.NewMulti(cfg)
		handles := make([]*exec.QueryHandle, n)
		for i := range handles {
			phys, err := variant(i, n)
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: %w", n, i, err)
			}
			h, err := reg.RegisterQuery(exec.QuerySpec{Name: fmt.Sprintf("v%d", i), Phys: phys})
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: register: %w", n, i, err)
			}
			handles[i] = h
		}
		start := time.Now()
		for _, r := range recs {
			if err := reg.Push(r.Link, r.TS, r.Vals...); err != nil {
				return nil, fmt.Errorf("e11 N=%d: push: %w", n, err)
			}
		}
		if err := reg.Sync(); err != nil {
			return nil, fmt.Errorf("e11 N=%d: sync: %w", n, err)
		}
		regSec := time.Since(start).Seconds()
		share := reg.Sharing()
		regState, err := reg.StateTuples()
		if err != nil {
			return nil, fmt.Errorf("e11 N=%d: state: %w", n, err)
		}
		var regCkpt bytes.Buffer
		if err := reg.CheckpointRegistry(&regCkpt); err != nil {
			return nil, fmt.Errorf("e11 N=%d: checkpoint: %w", n, err)
		}

		engines := make([]*exec.Engine, n)
		for i := range engines {
			phys, err := variant(i, n)
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: %w", n, i, err)
			}
			engines[i], err = exec.New(phys, cfg)
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: %w", n, i, err)
			}
		}
		start = time.Now()
		for _, e := range engines {
			for _, r := range recs {
				if err := e.Push(r.Link, r.TS, r.Vals...); err != nil {
					return nil, fmt.Errorf("e11 N=%d: indep push: %w", n, err)
				}
			}
			if err := e.Sync(); err != nil {
				return nil, fmt.Errorf("e11 N=%d: indep sync: %w", n, err)
			}
		}
		indepSec := time.Since(start).Seconds()
		indepState := 0
		indepCkpt := 0
		for i, e := range engines {
			st, err := e.StateTuples()
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: indep state: %w", n, i, err)
			}
			indepState += st
			var ck bytes.Buffer
			if err := e.Checkpoint(&ck); err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: indep checkpoint: %w", n, i, err)
			}
			indepCkpt += ck.Len()

			got, err := handles[i].Snapshot()
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: snapshot: %w", n, i, err)
			}
			want, err := e.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("e11 N=%d v%d: indep snapshot: %w", n, i, err)
			}
			if !reference.SameBag(reference.RowsOf(got), reference.RowsOf(want)) {
				return nil, fmt.Errorf("e11 N=%d v%d: registry view diverges from standalone (%d vs %d rows)",
					n, i, len(got), len(want))
			}
		}
		ktps := func(sec float64) string {
			return fmt.Sprintf("%.0f", float64(len(recs))/sec/1000)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(n), ktps(regSec), ktps(indepSec),
			fmt.Sprintf("%.1fx", indepSec/regSec),
			fmt.Sprint(regState), fmt.Sprint(indepState),
			fmt.Sprint(regCkpt.Len()), fmt.Sprint(indepCkpt),
			fmt.Sprintf("%.2f", share.Ratio()),
		})
	}
	return []Table{tab}, nil
}
