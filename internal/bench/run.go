package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/trace"
)

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
}

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
	return rc
}

// Result is one measured run.
type Result struct {
	Tuples  int64
	Elapsed time.Duration
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
	// Allocs/AllocBytes are process-wide heap allocation deltas across the
	// timed region (runtime.ReadMemStats before and after). They track the
	// allocation trajectory of the ingest path alongside wall-clock time in
	// the experiment tables.
	Allocs     uint64
	AllocBytes uint64
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

// Run executes query q once under rc — one Push per arrival, the paper's
// arrival-at-a-time regime — and reports the measurements.
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
	eng, err := exec.New(phys, exec.Config{EagerInterval: 1, LazyInterval: lazy})
	if err != nil {
		return Result{}, fmt.Errorf("bench %v: %w", q, err)
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

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var n int64
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if err := eng.Push(rec.Link, rec.TS, rec.Vals...); err != nil {
			return Result{}, fmt.Errorf("bench %v: push: %w", q, err)
		}
		n++
	}
	// ResultCount is the run's one Sync: the timed region ends with every
	// pending expiration applied.
	finalResults, err := eng.Queries()[0].ResultCount()
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
	return Result{
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
	}, nil
}
