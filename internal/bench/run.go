package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/trace"
)

// Live metric exposition for sequential experiment runs: every engine gets
// its own registry (so per-run Stats stay isolated), and liveMetrics
// points at the registry of the run currently in progress — the hook
// upabench's -metrics-addr serves.
var (
	liveExpose  atomic.Bool
	liveMetrics atomic.Pointer[obs.Registry]
)

// EnableLiveMetrics makes every subsequent Run allocate a registry and
// publish it via LiveMetrics while the run is in progress.
func EnableLiveMetrics() { liveExpose.Store(true) }

// LiveMetrics returns the registry of the most recently started run (nil
// before the first). Hand it to obs.ServeFunc for a live endpoint that
// follows sequential experiment runs.
func LiveMetrics() *obs.Registry { return liveMetrics.Load() }

// Health monitoring across runs: when enabled, every Run attaches the
// engine's built-in health rules to a manual-tick history sampler (ticked
// every healthTickEvery tuples so fast runs still evaluate), records alert
// transitions on the Result, and appends a formatted line per transition
// to a package log upabench drains at exit.
var (
	healthEnable atomic.Bool
	alertLogMu   sync.Mutex
	alertLog     []string
)

// EnableHealth makes every subsequent Run monitor engine health and record
// alert transitions (see Result.Alerts).
func EnableHealth() { healthEnable.Store(true) }

// DrainAlertLog returns and clears the formatted alert-transition lines
// accumulated by health-monitored runs.
func DrainAlertLog() []string {
	alertLogMu.Lock()
	defer alertLogMu.Unlock()
	out := alertLog
	alertLog = nil
	return out
}

func logAlert(q Query, rc RunConfig, t obs.Transition) {
	line := fmt.Sprintf("%v/%v w=%d shards=%d: %s %s -> %s (value %.6g)",
		q, rc.Strategy, rc.Window, rc.Shards, t.Rule, t.From, t.To, t.Value)
	alertLogMu.Lock()
	alertLog = append(alertLog, line)
	alertLogMu.Unlock()
}

// healthTickEvery is how many ingested tuples pass between manual health
// ticks during a monitored run (plus one final tick after Sync).
const healthTickEvery = 4096

// runHealth is one run's health monitor: manual ticks only, transitions
// collected in order.
type runHealth struct {
	mon    *obs.Health
	alerts []obs.Transition
}

func newRunHealth(q Query, rc RunConfig, rules []obs.Rule) *runHealth {
	rh := &runHealth{}
	hist := obs.NewHistory(rc.Metrics, obs.HistoryConfig{})
	rh.mon = obs.NewHealth(hist, rules...)
	rh.mon.AddSink(obs.AlertFunc(func(t obs.Transition) {
		rh.alerts = append(rh.alerts, t)
		logAlert(q, rc, t)
	}))
	rh.mon.Tick() // baseline: deltas start at the run's first tuple
	return rh
}

// finish takes the final tick and fills the Result's health fields.
func (rh *runHealth) finish(r *Result) {
	if rh == nil {
		return
	}
	rh.mon.Tick()
	r.Alerts = rh.alerts
	r.HealthSeverity = rh.mon.Overall().String()
}

// RunConfig parameterizes one measured run.
type RunConfig struct {
	// Strategy is the execution technique under test.
	Strategy plan.Strategy
	// Opts carry physical-planning choices (partitions, STR storage).
	Opts plan.Options
	// Window is the sliding-window size in time units.
	Window int64
	// Duration is how many time units of traffic to run; default 2×Window
	// so every tuple lives a full window lifetime within the run.
	Duration int64
	// LazyIntervalPct is the lazy maintenance interval as a percentage of
	// the window (Section 6.1 uses 5).
	LazyIntervalPct int64
	// SrcHosts sizes the address domain (default 1000).
	SrcHosts int
	// SrcSkew is the source-address Zipf skew; queries override it via
	// Query.SrcSkew when unset.
	SrcSkew float64
	// Seed makes the trace deterministic (default 42).
	Seed int64
	// Metrics, when set, receives the run's engine instruments so an
	// exposition endpoint can scrape the run; nil keeps the engine's
	// private registry (or a fresh one under EnableLiveMetrics).
	Metrics *obs.Registry
	// Tracer, when set, receives the run's typed engine events.
	Tracer *obs.Tracer
	// Shards > 1 runs the query key-partitioned across that many parallel
	// shards with batched ingest (DESIGN.md §9), falling
	// back to one shard when the plan admits no routing key.
	Shards int
	// Batch > 0 feeds the run through PushBatch in chunks of that many
	// arrivals instead of per-tuple Push. Batched ingest is what lets the
	// engine coalesce same-timestamp runs and take the columnar path;
	// per-tuple Push (the default) measures the paper's arrival-at-a-time
	// regime. Ignored when Shards > 1: such a run is always fed in
	// shardFeedBatch chunks.
	Batch int
	// NoColumnar pins the engine to the row batch path even when the plan
	// and ingest mode would admit the columnar kernels — the control leg of
	// the row-vs-columnar experiment (e12).
	NoColumnar bool
	// Health monitors the run with the engine's built-in health rules
	// (manual ticks every healthTickEvery tuples) and records alert
	// transitions on the Result. Implies a metrics registry. EnableHealth
	// turns it on for every run.
	Health bool
}

// shardFeedBatch is how many arrivals a sharded run hands to PushBatch at
// a time — large enough to amortize the per-batch routing and flush costs,
// small enough to keep shard queues busy.
const shardFeedBatch = 256

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Duration <= 0 {
		rc.Duration = 2 * rc.Window
	}
	if rc.LazyIntervalPct <= 0 {
		rc.LazyIntervalPct = 5
	}
	if rc.SrcHosts <= 0 {
		rc.SrcHosts = 1000
	}
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	if healthEnable.Load() {
		rc.Health = true
	}
	if rc.Metrics == nil && (liveExpose.Load() || rc.Health) {
		rc.Metrics = obs.NewRegistry()
	}
	if rc.Metrics != nil {
		liveMetrics.Store(rc.Metrics)
	}
	return rc
}

// Result is one measured run.
type Result struct {
	Query    Query
	Strategy plan.Strategy
	Window   int64
	Tuples   int64
	Elapsed  time.Duration
	// MsPerK is the paper's metric: milliseconds of overall execution time
	// per 1000 input tuples processed.
	MsPerK float64
	// Touched counts tuple visits across all state structures.
	Touched int64
	// MaxState is the high-water mark of stored tuples.
	MaxState int
	// Emitted/Retracted count output-stream tuples; WindowNegatives counts
	// the NT strategy's extra retraction traffic.
	Emitted, Retracted, WindowNegatives int64
	// FinalResults is the view size at the end of the run.
	FinalResults int
	// Shards is how many parallel shards executed the run (1 when
	// sequential); ShardFallback carries the planner's reason when a
	// sharded run degraded to one shard.
	Shards        int
	ShardFallback string
	// Columnar reports whether the engine finished the run on the columnar
	// kernel path (false while shards run; requires batched ingest and a plan
	// with full kernel coverage, and survives only if no run demoted it).
	Columnar bool
	// Allocs/AllocBytes are process-wide heap allocation deltas across the
	// timed region (runtime.ReadMemStats before and after, so sharded
	// workers are covered too). They track the allocation trajectory of the
	// ingest path alongside wall-clock time in the experiment tables.
	Allocs     uint64
	AllocBytes uint64
	// Metrics is the run's end-of-run metric snapshot (engine counters,
	// gauges, and per-operator series) — the registry-backed view of the
	// same measures, embedded in experiment report tables.
	Metrics obs.Snapshot
	// Ops is the run's per-operator profile in plan pre-order (root = 0),
	// summed across shards for a sharded run — the EXPLAIN ANALYZE view of
	// the same execution, embedded in experiment report tables.
	Ops []exec.OpProfile
	// LatencyPos/LatencyNeg are the run's ingest→emit delta-latency
	// distributions (emitted insertions / retractions), recorded only when
	// the run has a metrics registry (rc.Metrics or EnableLiveMetrics);
	// zero-valued otherwise.
	LatencyPos, LatencyNeg obs.LogHistogramSnapshot
	// Violations is the conformance monitor's total count of retractions
	// that exceeded their operator's declared update-pattern class; zero on
	// a conformant run.
	Violations int64
	// Alerts are the health monitor's alert transitions during the run and
	// HealthSeverity its final overall verdict ("OK"/"WARN"/"CRIT");
	// populated only when the run was health-monitored (RunConfig.Health or
	// EnableHealth).
	Alerts         []obs.Transition
	HealthSeverity string
}

// AllocsPerOp returns heap allocations per input tuple (benchmark-style
// "per op" normalization).
func (r Result) AllocsPerOp() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.Allocs) / float64(r.Tuples)
}

// BytesPerOp returns heap bytes allocated per input tuple.
func (r Result) BytesPerOp() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.AllocBytes) / float64(r.Tuples)
}

// Run executes query q once under rc and reports the measurements.
func Run(q Query, rc RunConfig) (Result, error) {
	rc = rc.withDefaults()
	root := BuildPlan(q, rc.Window)
	if err := plan.Annotate(root, PlanStats(q, rc.SrcHosts)); err != nil {
		return Result{}, fmt.Errorf("bench %v: %w", q, err)
	}
	phys, err := plan.Build(root, rc.Strategy, rc.Opts)
	if err != nil {
		return Result{}, fmt.Errorf("bench %v: %w", q, err)
	}
	lazy := rc.Window * rc.LazyIntervalPct / 100
	if lazy < 1 {
		lazy = 1
	}
	cfg := exec.Config{
		EagerInterval: 1, LazyInterval: lazy,
		Metrics: rc.Metrics, Tracer: rc.Tracer,
		NoColumnar: rc.NoColumnar,
	}

	links := q.Links()
	skew := rc.SrcSkew
	if skew == 0 {
		skew = q.SrcSkew()
	}
	gen := trace.NewGenerator(trace.Config{
		Links:           links,
		Tuples:          int(rc.Duration) * links,
		Seed:            rc.Seed,
		SrcHosts:        rc.SrcHosts,
		SrcSkew:         skew,
		DisjointSources: q.DisjointSources(),
	})

	// Open decides between the plain engine and key-partitioned shards; the
	// run drives whichever it returned through the one Executor contract.
	eng, fallback, err := exec.Open(exec.QuerySpec{Phys: phys}, cfg, rc.Shards)
	if err != nil {
		return Result{}, fmt.Errorf("bench %v: %w", q, err)
	}
	defer eng.Close()
	feed := rc.Batch
	if rc.Shards > 1 {
		feed = shardFeedBatch
	}
	var rh *runHealth
	if rc.Health {
		rh = newRunHealth(q, rc, eng.HealthRules(exec.HealthSLO{}))
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var n int64
	if feed > 0 {
		batch := make([]exec.Arrival, 0, feed)
		for {
			rec, ok := gen.Next()
			if !ok {
				break
			}
			batch = append(batch, exec.Arrival{Stream: rec.Link, TS: rec.TS, Vals: rec.Vals})
			if len(batch) == feed {
				if err := eng.PushBatch(batch); err != nil {
					return Result{}, fmt.Errorf("bench %v: push: %w", q, err)
				}
				batch = batch[:0]
				n += int64(feed)
				if rh != nil && n%healthTickEvery == 0 {
					rh.mon.Tick()
				}
			}
		}
		if err := eng.PushBatch(batch); err != nil {
			return Result{}, fmt.Errorf("bench %v: push: %w", q, err)
		}
		n += int64(len(batch))
	} else {
		for {
			rec, ok := gen.Next()
			if !ok {
				break
			}
			if err := eng.Push(rec.Link, rec.TS, rec.Vals...); err != nil {
				return Result{}, fmt.Errorf("bench %v: push: %w", q, err)
			}
			n++
			if rh != nil && n%healthTickEvery == 0 {
				rh.mon.Tick()
			}
		}
	}
	// ResultCount is the run's one Sync: the timed region ends with every
	// pending expiration applied.
	finalResults, err := eng.ResultCount()
	if err != nil {
		return Result{}, fmt.Errorf("bench %v: sync: %w", q, err)
	}
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	touched, err := eng.Touched()
	if err != nil {
		return Result{}, fmt.Errorf("bench %v: %w", q, err)
	}
	st := eng.Stats()
	latPos, latNeg := eng.DeltaLatency()
	res := Result{
		Query:           q,
		Strategy:        rc.Strategy,
		Window:          rc.Window,
		Tuples:          n,
		Elapsed:         elapsed,
		MsPerK:          float64(elapsed.Nanoseconds()) / 1e6 / float64(n) * 1000,
		Touched:         touched,
		MaxState:        st.MaxStateTuples,
		Emitted:         st.Emitted,
		Retracted:       st.Retracted,
		WindowNegatives: st.WindowNegatives,
		FinalResults:    finalResults,
		Allocs:          m1.Mallocs - m0.Mallocs,
		AllocBytes:      m1.TotalAlloc - m0.TotalAlloc,
		Metrics:         eng.Metrics().Snapshot(),
		Ops:             eng.Profile(),
		Shards:          eng.Shards(),
		ShardFallback:   fallback,
		LatencyPos:      latPos,
		LatencyNeg:      latNeg,
		Violations:      eng.Violations(),
	}
	// The columnar latch belongs to a single engine; a set of shards has no
	// one answer and reports false.
	if c, ok := eng.(interface{ Columnar() bool }); ok {
		res.Columnar = c.Columnar()
	}
	rh.finish(&res)
	return res, nil
}
