package exec

import (
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// Engine metric names. Counters carry the paper's cost measures
// (Section 6.2: tuples processed, retraction volume, stored state) as live
// series; gauges are sampled at the cadence documented on sampleState.
const (
	// MetricArrivals counts base-stream tuples pushed.
	MetricArrivals = "upa_arrivals_total"
	// MetricEmitted counts positive output-stream tuples.
	MetricEmitted = "upa_emitted_total"
	// MetricRetracted counts negative output-stream tuples.
	MetricRetracted = "upa_retracted_total"
	// MetricWindowNegatives counts the NT strategy's window-generated
	// retractions.
	MetricWindowNegatives = "upa_window_negatives_total"
	// MetricEagerPasses counts eager maintenance passes (Section 2.3).
	MetricEagerPasses = "upa_eager_passes_total"
	// MetricLazyPasses counts lazy maintenance passes.
	MetricLazyPasses = "upa_lazy_passes_total"
	// MetricTableUpdates counts relation/NRR mutations applied.
	MetricTableUpdates = "upa_table_updates_total"
	// MetricViewExpired counts result rows retired by lazy view expiration.
	MetricViewExpired = "upa_view_expired_total"
	// MetricClock is the engine's logical time.
	MetricClock = "upa_clock"
	// MetricWatermark is the low-watermark timestamp: all expirations with
	// timestamp ≤ watermark are fully reflected in the result view. It is
	// min(last eager pass, last lazy pass) and trails MetricClock by at most
	// max(EagerInterval, LazyInterval).
	MetricWatermark = "upa_watermark"
	// MetricStateTuplesPeak is the high-water mark of stored tuples
	// (operator state + materialized windows + result views), sampled on the
	// first arrival, every 64th arrival and every Sync.
	MetricStateTuplesPeak = "upa_state_tuples_peak"
	// MetricPushNanos is the per-Push (per-PushBatch) wall-clock latency
	// histogram, recorded only when Config.Metrics is set.
	MetricPushNanos = "upa_push_nanos"
	// MetricRefreshNanos is the result-refresh latency histogram: the
	// wall-clock cost of each Sync (forcing all pending expirations into the
	// view). Recorded only when Config.Metrics is set.
	MetricRefreshNanos = "upa_refresh_nanos"
	// MetricCheckpoints counts completed Checkpoint calls.
	MetricCheckpoints = "upa_checkpoint_total"
	// MetricRestores counts completed Restore calls.
	MetricRestores = "upa_checkpoint_restore_total"
	// MetricCheckpointBytes is the size of the most recent checkpoint.
	MetricCheckpointBytes = "upa_checkpoint_bytes"
	// MetricCheckpointLast is the obs.Nanotime() stamp of the most recent
	// completed checkpoint (0 = never). The built-in checkpoint-age health
	// rule reads its age.
	MetricCheckpointLast = "upa_checkpoint_last_nanos"
	// MetricCheckpointNanos is the checkpoint-write latency histogram,
	// recorded only when Config.Metrics is set.
	MetricCheckpointNanos = "upa_checkpoint_nanos"
	// MetricRestoreNanos is the restore latency histogram, recorded only when
	// Config.Metrics is set.
	MetricRestoreNanos = "upa_checkpoint_restore_nanos"
	// MetricDeltaLatency is the ingest→emit delta-latency distribution: for
	// every tuple the query emits (insertion or retraction), the monotonic
	// time from when the causing call (Push, PushBatch, Advance, a table
	// update, Sync) entered the engine until the delta was folded into the
	// result view. A log-bucketed histogram (summary exposition:
	// p50/p95/p99/max), labeled {polarity} plus any Config.MetricLabels and,
	// for a named registry query, {query}. Recorded only when Config.Metrics
	// is set.
	MetricDeltaLatency = "upa_delta_latency_nanos"
)

// Label values of MetricDeltaLatency's {polarity} dimension.
const (
	// PolarityPos marks insertions (positive output-stream tuples).
	PolarityPos = "pos"
	// PolarityNeg marks retractions (negative output-stream tuples).
	PolarityNeg = "neg"
)

// Per-operator metric names. Every series is labeled {op, id} (plus any
// Config.MetricLabels such as shard) where id is the operator's pre-order
// index in the plan (root = 0) — the same numbering plan.Explain and
// Profile() use.
const (
	// MetricOpEmitted / MetricOpRetracted count the positive and negative
	// tuples the operator produced on its output edge.
	MetricOpEmitted   = "upa_op_emitted_total"
	MetricOpRetracted = "upa_op_retracted_total"
	// MetricOpInPos / MetricOpInNeg count tuples arriving on the operator's
	// inputs, split by polarity.
	MetricOpInPos = "upa_op_in_pos_total"
	MetricOpInNeg = "upa_op_in_neg_total"
	// MetricOpExpired counts output tuples the operator produced from
	// expiration work (Advance passes) rather than input processing.
	MetricOpExpired = "upa_op_expired_total"
	// MetricOpState is the operator's sampled stored-tuple count.
	MetricOpState = "upa_op_state_tuples"
	// MetricOpTouched is the operator's sampled cumulative tuple-visit count.
	MetricOpTouched = "upa_op_touched_total"
	// MetricOpProcNanos is cumulative wall time the operator spent processing
	// input runs and expiring state (its Advance calls in the maintenance
	// passes), estimated from 1-in-16 sampled runs and recorded only when
	// Config.Metrics is set.
	MetricOpProcNanos = "upa_op_proc_nanos_total"
	// MetricOpObservedPattern is the pattern class the operator's output
	// stream has actually exhibited so far, as an integer in the paper's
	// lattice order (0=MONO, 1=WKS, 2=WK, 3=STR). Comparing it with the
	// declared class (plan annotation) exposes mispredictions: an edge
	// declared STR that never left WKS wasted negative-tuple machinery, and
	// an edge exceeding its declaration is a conformance bug.
	MetricOpObservedPattern = "upa_op_observed_pattern"
	// MetricPatternViolations counts retractions that exceeded the
	// operator's declared pattern class, labeled {op, id, kind}. Kinds:
	// "expiration" (any retraction on a chronicle/MONO edge), "out_of_order"
	// (boundary expirations out of insertion order on a FIFO/WKS edge), and
	// "premature" (retraction of a tuple before its declared expiration time
	// on a WKS/WK edge).
	MetricPatternViolations = "upa_pattern_violations_total"
)

// Violation kind label values of MetricPatternViolations, in counter index
// order.
const (
	ViolationExpiration = "expiration"
	ViolationOutOfOrder = "out_of_order"
	ViolationPremature  = "premature"
)

// violation counter indexes, matching the kind order above.
const (
	violExpiration = iota
	violOutOfOrder
	violPremature
	numViolationKinds
)

// violationKinds lists the kind label values by counter index.
var violationKinds = [numViolationKinds]string{
	ViolationExpiration, ViolationOutOfOrder, ViolationPremature,
}

// seriesConsumers is the series inventory: every series name an executor, a
// registry and the health monitor register on a metrics registry, each with
// what reads it — a health rule, EXPLAIN ANALYZE, upaquery output, a /debug
// page, the checkpoint format or benchmark/. TestSeriesInventory fails when a
// series is registered without an entry here (a new series needs a named
// consumer) and when an entry names a series nothing registers.
var seriesConsumers = map[string]string{
	MetricArrivals:          "upaquery result lines (Stats); checkpoint counters",
	MetricEmitted:           "upaquery result lines (Stats); checkpoint counters",
	MetricRetracted:         "upaquery result lines (Stats); checkpoint counters",
	MetricWindowNegatives:   "upaquery result lines (Stats); checkpoint counters",
	MetricEagerPasses:       "checkpoint counters",
	MetricLazyPasses:        "checkpoint counters",
	MetricTableUpdates:      "checkpoint counters",
	MetricViewExpired:       "checkpoint counters",
	MetricClock:             "health rule staleness-lag",
	MetricWatermark:         "health rule staleness-lag",
	MetricStateTuplesPeak:   "upaquery peak stored tuples (Stats); checkpoint",
	MetricPushNanos:         "/debug/history ingest-call latency windows",
	MetricRefreshNanos:      "/debug/history refresh latency windows (TestQuantileRuleOnRefreshNanos)",
	MetricCheckpoints:       "/debug/history checkpoint cadence (TestCheckpointMetrics)",
	MetricRestores:          "/debug/history restore count (TestCheckpointMetrics)",
	MetricCheckpointBytes:   "/debug/history checkpoint size (TestCheckpointMetrics)",
	MetricCheckpointLast:    "health rule checkpoint-age",
	MetricCheckpointNanos:   "/debug/history checkpoint-write latency windows",
	MetricRestoreNanos:      "/debug/history restore latency windows",
	MetricDeltaLatency:      "health rule delta-p99; upaquery -latency; /debug/conformance",
	MetricOpEmitted:         "EXPLAIN ANALYZE out+; benchmark/ operator.out",
	MetricOpRetracted:       "EXPLAIN ANALYZE out-; benchmark/ operator.retracted",
	MetricOpInPos:           "EXPLAIN ANALYZE in+; benchmark/ operator.in",
	MetricOpInNeg:           "EXPLAIN ANALYZE in-; benchmark/ operator.in",
	MetricOpExpired:         "EXPLAIN ANALYZE expired",
	MetricOpState:           "EXPLAIN ANALYZE state; benchmark/ operator.state_tuples",
	MetricOpTouched:         "EXPLAIN ANALYZE touched; benchmark/ operator.touched_per_tuple",
	MetricOpProcNanos:       "EXPLAIN ANALYZE proc; benchmark/ operator.busy_share",
	MetricOpObservedPattern: "EXPLAIN ANALYZE observed; /debug/conformance",
	MetricPatternViolations: "health rules pattern-violations and premature-expirations",
	MetricShardQueueBlocked: "health rule shard-blocked; benchmark/ exec.shard_blocked_share",

	obs.MetricHealthSeverity:    "/debug/health rule states as series (TestHealthEscalationNeedsForTicks)",
	obs.MetricHealthTransitions: "/debug/health transition counts as series (TestHealthEscalationNeedsForTicks)",
	obs.MetricBuildInfo:         "/debug/history process series (WithHealth, upaquery -health)",
	obs.MetricUptime:            "/debug/history process series (WithHealth, upaquery -health)",
	obs.MetricGoroutines:        "/debug/history process series (WithHealth, upaquery -health)",
	obs.MetricHeapBytes:         "/debug/history process series (WithHealth, upaquery -health)",
	obs.MetricGCCycles:          "/debug/history process series (WithHealth, upaquery -health)",
}

// engineMetrics bundles the engine's registered instruments. The registry
// is the single source of truth: Stats() and Profile() read these same
// counters.
type engineMetrics struct {
	arrivals, emitted, retracted, windowNegatives      *obs.Counter
	eagerPasses, lazyPasses, tableUpdates, viewExpired *obs.Counter
	checkpoints, restores                              *obs.Counter
	clock, watermark, maxStateTuples                   *obs.Gauge
	checkpointBytes, checkpointLast                    *obs.Gauge
	pushNanos, refreshNanos                            *obs.LogHistogram
	checkpointNanos, restoreNanos                      *obs.LogHistogram
	latPos, latNeg                                     *obs.LogHistogram
}

// withLabel copies base and adds one extra label pair.
func withLabel(base obs.Labels, k, v string) obs.Labels {
	out := obs.Labels{k: v}
	for bk, bv := range base {
		out[bk] = bv
	}
	return out
}

func newEngineMetrics(reg *obs.Registry, base obs.Labels) engineMetrics {
	const latHelp = "ingest-to-emit delta latency in nanoseconds (log-bucketed)"
	return engineMetrics{
		latPos:          reg.LogHistogram(MetricDeltaLatency, latHelp, withLabel(base, "polarity", PolarityPos)),
		latNeg:          reg.LogHistogram(MetricDeltaLatency, latHelp, withLabel(base, "polarity", PolarityNeg)),
		arrivals:        reg.Counter(MetricArrivals, "base-stream tuples pushed", base),
		emitted:         reg.Counter(MetricEmitted, "positive output-stream tuples", base),
		retracted:       reg.Counter(MetricRetracted, "negative output-stream tuples", base),
		windowNegatives: reg.Counter(MetricWindowNegatives, "window-generated retractions (NT strategy)", base),
		eagerPasses:     reg.Counter(MetricEagerPasses, "eager maintenance passes", base),
		lazyPasses:      reg.Counter(MetricLazyPasses, "lazy maintenance passes", base),
		tableUpdates:    reg.Counter(MetricTableUpdates, "table updates applied", base),
		viewExpired:     reg.Counter(MetricViewExpired, "result rows retired by view expiration", base),
		clock:           reg.Gauge(MetricClock, "engine logical time", base),
		watermark:       reg.Gauge(MetricWatermark, "timestamp up to which expirations are reflected in the view", base),
		maxStateTuples:  reg.Gauge(MetricStateTuplesPeak, "peak stored tuples", base),
		checkpoints:     reg.Counter(MetricCheckpoints, "completed checkpoints", base),
		restores:        reg.Counter(MetricRestores, "completed restores", base),
		checkpointBytes: reg.Gauge(MetricCheckpointBytes, "size of the most recent checkpoint", base),
		checkpointLast:  reg.Gauge(MetricCheckpointLast, "monotonic stamp of the most recent checkpoint (0 = never)", base),
		pushNanos:       reg.LogHistogram(MetricPushNanos, "Push wall-clock latency in nanoseconds (log-bucketed)", base),
		refreshNanos:    reg.LogHistogram(MetricRefreshNanos, "Sync (result refresh) wall-clock latency in nanoseconds (log-bucketed)", base),
		checkpointNanos: reg.LogHistogram(MetricCheckpointNanos, "checkpoint-write wall-clock latency in nanoseconds (log-bucketed)", base),
		restoreNanos:    reg.LogHistogram(MetricRestoreNanos, "restore wall-clock latency in nanoseconds (log-bucketed)", base),
	}
}

// opStats is one operator's stats cell: every field is a registered
// instrument, so updates are single atomic adds and the cell can be read
// from any goroutine (the /debug/plan page scrapes mid-run). Counters are
// always maintained; the wall-clock fields are written only when the engine
// is timed.
type opStats struct {
	inPos, inNeg       *obs.Counter
	pos, neg           *obs.Counter
	expired, procNanos *obs.Counter
	state              *obs.Gauge
	touched            *obs.Gauge
	// conf is the operator's pattern-conformance cell, maintained on the
	// output edge by propagateBatch/propagateCols.
	conf conformance
}

// conformance watches one operator's output stream and checks every
// retraction against the operator's declared update-pattern class
// (Section 3.1's lattice): any retraction violates a chronicle (MONO) edge,
// boundary expirations out of insertion order violate FIFO (WKS), and
// premature (pre-expiration) retractions violate exp-timestamp (WK) edges.
// It also tracks the class the stream has actually exhibited — the observed
// class — which can sit BELOW the declaration (e.g. an edge declared STR
// whose retractions were all orderly boundary expirations), exposing
// overcautious NT-vs-DIRECT choices.
//
// The mutable fields (observed, maxBoundaryExp) are written only by the
// engine goroutine; concurrent readers (/debug pages, Profile) see the
// observed class through the gauge.
type conformance struct {
	// declared is the plan's pattern annotation for the output edge.
	declared core.Pattern
	// observed is the strongest class the output stream has exhibited.
	observed core.Pattern
	// maxBoundaryExp is the largest expiration timestamp seen among boundary
	// retractions, for the FIFO order check.
	maxBoundaryExp int64
	// replacement marks operators with replacement semantics (group-by):
	// their never-expiring aggregate rows are retracted when superseded or
	// when a group empties, which the paper's Rule 4 classifies as WK — not
	// a premature expiration.
	replacement bool
	observedG   *obs.Gauge
	viol        [numViolationKinds]*obs.Counter
}

// observeRetraction classifies one emitted negative tuple. now is the
// engine's logical clock at emission time.
func (st *opStats) observeRetraction(t tuple.Tuple, now int64) {
	c := &st.conf
	// exc is the pattern class this single retraction evidences.
	var exc core.Pattern
	switch {
	case t.Exp == tuple.NeverExpires:
		// Retraction of a row that was never due to expire: a replacement
		// deletion for group-by (WK), an unpredictable deletion otherwise
		// (count-based evictions, negation over unbounded rows) — STR.
		if c.replacement {
			exc = core.Weak
		} else {
			exc = core.Strict
		}
	case t.Exp > now:
		exc = core.Strict // premature: retracted before its declared expiry
	case t.Exp < c.maxBoundaryExp:
		exc = core.Weak // boundary expiration, but out of FIFO order
	default:
		c.maxBoundaryExp = t.Exp
		exc = core.Weakest // orderly boundary expiration
	}
	if exc > c.observed {
		c.observed = exc
		c.observedG.Set(int64(exc))
	}
	if exc <= c.declared {
		return
	}
	switch {
	case c.declared == core.Monotonic:
		c.viol[violExpiration].Inc()
	case exc == core.Strict:
		c.viol[violPremature].Inc()
	default:
		c.viol[violOutOfOrder].Inc()
	}
}

// violations sums the operator's conformance-violation counters.
func (st *opStats) violations() (byKind [numViolationKinds]int64, total int64) {
	for i, c := range st.conf.viol {
		byKind[i] = c.Value()
		total += byKind[i]
	}
	return byKind, total
}

// newOpStats registers the per-operator series for one plan node, labeled
// with the operator class and its engine-wide operator index so the
// exposition output lines up with Profile() and plan.Explain's tree order
// (for a single-query engine the index is the root's pre-order position; in
// a registry ids are assigned in registration order and never reused). base
// labels (e.g. a shard id) are merged into every series.
func newOpStats(reg *obs.Registry, n *plan.PNode, idx int, base obs.Labels) opStats {
	id := strconv.Itoa(idx)
	labels := obs.Labels{"op": n.Class.String(), "id": id}
	for k, v := range base {
		labels[k] = v
	}
	st := opStats{
		inPos:     reg.Counter(MetricOpInPos, "per-operator positive input tuples", labels),
		inNeg:     reg.Counter(MetricOpInNeg, "per-operator negative input tuples", labels),
		pos:       reg.Counter(MetricOpEmitted, "per-operator emitted tuples", labels),
		neg:       reg.Counter(MetricOpRetracted, "per-operator retracted tuples", labels),
		expired:   reg.Counter(MetricOpExpired, "per-operator expiration-driven outputs", labels),
		procNanos: reg.Counter(MetricOpProcNanos, "per-operator cumulative wall time of run processing and expiry, estimated from 1-in-16 sampled runs", labels),
		state:     reg.Gauge(MetricOpState, "per-operator stored tuples (sampled)", labels),
		touched:   reg.Gauge(MetricOpTouched, "per-operator tuple visits (sampled)", labels),
	}
	st.conf = conformance{
		declared:       n.Pattern,
		maxBoundaryExp: math.MinInt64,
		replacement:    n.Class == core.OpGroupBy,
		observedG: reg.Gauge(MetricOpObservedPattern,
			"per-operator observed update-pattern class (0=MONO 1=WKS 2=WK 3=STR)", labels),
	}
	for i, kind := range violationKinds {
		st.conf.viol[i] = reg.Counter(MetricPatternViolations,
			"retractions exceeding the operator's declared pattern class", withLabel(labels, "kind", kind))
	}
	return st
}
