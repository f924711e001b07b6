package bench

import (
	"fmt"

	"repro/internal/plan"
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

// Table is one rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
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
		Title: title + " — execution time (ms per 1000 tuples) with allocation rate",
		// Each variant carries its time column plus the run's heap
		// allocation rate (objects and bytes per input tuple), so the tables
		// track the allocation trajectory alongside wall-clock.
		Columns: []string{"window"},
	}
	for _, v := range variants {
		timeTab.Columns = append(timeTab.Columns, v.Name, v.Name+" allocs/op", v.Name+" B/op")
	}
	stateTab := Table{
		Title:   title + " — peak stored tuples",
		Columns: append([]string{"window"}, variantNames(variants)...),
	}
	for _, w := range windows {
		timeRow := []string{fmt.Sprint(w)}
		stateRow := []string{fmt.Sprint(w)}
		for _, v := range variants {
			res, err := Run(q, RunConfig{Strategy: v.Strat, Opts: v.Opts, Window: w})
			if err != nil {
				return nil, fmt.Errorf("%s %s w=%d: %w", id, v.Name, w, err)
			}
			timeRow = append(timeRow, fmt.Sprintf("%.3f", res.MsPerK),
				fmt.Sprintf("%.2f", res.AllocsPerOp()), fmt.Sprintf("%.0f", res.BytesPerOp()))
			stateRow = append(stateRow, fmt.Sprint(res.MaxState))
		}
		timeTab.Rows = append(timeTab.Rows, timeRow)
		stateTab.Rows = append(stateTab.Rows, stateRow)
	}
	return []Table{timeTab, stateTab}, nil
}

func variantNames(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// Experiments returns the experiment index: E1–E8, one per table or figure
// of the paper's Section 6 evaluation.
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
	}
}

func runPartitionSweep(s Scale) ([]Table, error) {
	w := int64(20000)
	if s == Quick {
		w = 5000
	}
	tab := Table{
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
