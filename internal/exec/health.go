package exec

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

// HealthSLO carries the deployment-specific targets the built-in health
// rules cannot derive from the plan alone. The zero value is valid:
// DeltaP99 == 0 disables the latency-SLO rule and CheckpointAge == 0 uses
// the default.
type HealthSLO struct {
	// DeltaP99 is the ingest-to-emit latency objective: the windowed p99
	// of upa_delta_latency_nanos{polarity="pos"} going past it is CRIT
	// (past 80% of it, WARN). 0 disables the rule.
	DeltaP99 time.Duration
	// CheckpointAge is how stale the last checkpoint may get before CRIT
	// (half of it, WARN). Engines that never checkpoint stay OK. Default
	// 15 minutes.
	CheckpointAge time.Duration
	// Window is how many sample ticks rate/delta/quantile rules look back
	// over. Default 10.
	Window int
}

const (
	defaultCheckpointAge = 15 * time.Minute
	defaultHealthWindow  = 10
)

// Built-in health rule names.
const (
	RulePatternViolations    = "pattern-violations"
	RulePrematureExpirations = "premature-expirations"
	RuleShardBlocked         = "shard-blocked"
	RuleDeltaP99             = "delta-p99"
	RuleStalenessLag         = "staleness-lag"
	RuleCheckpointAge        = "checkpoint-age"
)

// builtinHealthRules builds the rule set every engine registers at compile
// time, parameterized only by scalars the engine already knows: the chosen
// execution strategy, the maintenance cadences (for staleness-lag
// thresholds), and the caller's SLOs. Keeping the inputs scalar lets tests
// inject faults purely at the metrics layer.
//
// Every rule reads series the instrumented engine maintains; on an
// uninstrumented engine the series never exist and every rule stays OK.
func builtinHealthRules(strategy plan.Strategy, eagerInterval, lazyInterval int64, slo HealthSLO) []obs.Rule {
	if slo.CheckpointAge <= 0 {
		slo.CheckpointAge = defaultCheckpointAge
	}
	if slo.Window <= 0 {
		slo.Window = defaultHealthWindow
	}
	w := slo.Window
	nan := math.NaN()

	// The watermark trails the clock by at most max(EagerInterval,
	// LazyInterval) on a healthy engine (see MetricWatermark); beyond a
	// small multiple of that bound, result staleness is no longer the
	// documented contract.
	maint := max(eagerInterval, lazyInterval, 1)

	rules := []obs.Rule{
		{
			Name: RulePatternViolations,
			Help: "retractions exceeded a declared update-pattern class in the window",
			Eval: func(h *obs.History) (float64, bool) {
				return windowSum(h.Window(MetricPatternViolations, w), "", "")
			},
			Warn: nan, Crit: 0, // any violation in the window is CRIT
			ForTicks: 1, HoldTicks: 2,
		},
		{
			Name: RulePrematureExpirations,
			Help: fmt.Sprintf("premature retractions contradict the %v strategy's pattern assumptions", strategy),
			Eval: func(h *obs.History) (float64, bool) {
				return windowSum(h.Window(MetricPatternViolations, w), "kind", ViolationPremature)
			},
			Warn: nan, Crit: 0,
			ForTicks: 1, HoldTicks: 2,
		},
		{
			Name: RuleShardBlocked,
			Help: "the caller of a partitioned engine spends a large share of wall time waiting at the partition join for partitions replaying on other workers (ns waited per second)",
			// The busiest partitioned engine's wait rate over the last w
			// tick intervals: w+1 stamps bound w deltas.
			Eval: func(h *obs.History) (float64, bool) {
				wins := h.Window(MetricShardQueueBlocked, w+1)
				worst := 0.0
				for _, sw := range wins {
					n := len(sw.Values)
					if n < 2 || sw.WallNanos[n-1] <= sw.WallNanos[0] {
						continue
					}
					worst = math.Max(worst, float64(sum(sw.Values[1:]))/(float64(sw.WallNanos[n-1]-sw.WallNanos[0])/1e9))
				}
				return worst, len(wins) > 0
			},
			Warn: 0.25e9, Crit: 0.6e9,
			ForTicks: 2, HoldTicks: 2,
		},
		{
			Name: RuleStalenessLag,
			Help: "result staleness: max(clock) - min(watermark) exceeds the maintenance-cadence bound",
			Eval: func(h *obs.History) (float64, bool) {
				clocks := h.Window(MetricClock, 1)
				if len(clocks) == 0 {
					return 0, false
				}
				lag := float64(clocks[0].Cumulative)
				for _, c := range clocks[1:] {
					lag = math.Max(lag, float64(c.Cumulative))
				}
				if marks := h.Window(MetricWatermark, 1); len(marks) > 0 {
					low := marks[0].Cumulative
					for _, m := range marks[1:] {
						low = min(low, m.Cumulative)
					}
					lag -= float64(low)
				}
				return lag, true
			},
			Warn: 2 * float64(maint), Crit: 8 * float64(maint),
			ForTicks: 2, HoldTicks: 2,
		},
		{
			Name: RuleCheckpointAge,
			Help: "nanoseconds since the last completed checkpoint (engines that never checkpoint stay OK)",
			// The gauge holds the obs.Nanotime() stamp of the last
			// checkpoint; 0 means never, which is not stale.
			Eval: func(h *obs.History) (float64, bool) {
				stamps := h.Window(MetricCheckpointLast, 1)
				now := obs.Nanotime()
				oldest := int64(0)
				for _, st := range stamps {
					if st.Cumulative > 0 {
						oldest = max(oldest, now-st.Cumulative)
					}
				}
				return float64(oldest), len(stamps) > 0
			},
			Warn:     float64(slo.CheckpointAge.Nanoseconds()) / 2,
			Crit:     float64(slo.CheckpointAge.Nanoseconds()),
			ForTicks: 1, HoldTicks: 1,
		},
	}
	if slo.DeltaP99 > 0 {
		rules = append(rules, obs.Rule{
			Name: RuleDeltaP99,
			Help: fmt.Sprintf("windowed p99 ingest-to-emit latency vs the %v SLO", slo.DeltaP99),
			// Quantiles cannot be folded, so the p99 is read off the
			// bucket-wise merge of every positive-polarity series' window.
			Eval: func(h *obs.History) (float64, bool) {
				var merged obs.LogHistogramSnapshot
				matched := false
				for _, sw := range h.Window(MetricDeltaLatency, w) {
					if hasLabel(sw.Key, "polarity", PolarityPos) && sw.Quantiles != nil {
						merged = merged.Merge(*sw.Quantiles)
						matched = true
					}
				}
				return float64(merged.Quantile(0.99)), matched
			},
			Warn:     0.8 * float64(slo.DeltaP99.Nanoseconds()),
			Crit:     float64(slo.DeltaP99.Nanoseconds()),
			ForTicks: 2, HoldTicks: 2,
		})
	}
	return rules
}

// windowSum totals the windowed deltas of every series carrying label
// k="v" (every series when k is empty); false when none does.
func windowSum(wins []obs.SeriesWindow, k, v string) (float64, bool) {
	total, matched := int64(0), false
	for _, sw := range wins {
		if k == "" || hasLabel(sw.Key, k, v) {
			total, matched = total+sum(sw.Values), true
		}
	}
	return float64(total), matched
}

// sum totals a window's per-tick values.
func sum(vals []int64) (s int64) {
	for _, v := range vals {
		s += v
	}
	return s
}

// hasLabel reports whether a series key (name plus rendered labels)
// carries k="v". Label rendering is deterministic and the values matched
// here need no escaping, so a substring test is sound.
func hasLabel(key, k, v string) bool { return strings.Contains(key, k+`="`+v+`"`) }

// HealthRules returns the engine's built-in rule set (see
// builtinHealthRules). The NT-specific rules key off the first registered
// query's strategy; an empty registry gets the UPA set.
func (e *Engine) HealthRules(slo HealthSLO) []obs.Rule {
	strategy := plan.UPA
	if len(e.queries) > 0 {
		strategy = e.queries[0].phys.Strategy
	}
	return builtinHealthRules(strategy, e.cfg.EagerInterval, e.cfg.LazyInterval, slo)
}
