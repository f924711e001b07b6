package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupReps is how many times the end-to-end run sets the workload up;
// setup_s is the median, so one slow page-in does not decide it.
const setupReps = 3

// minPasses is the fewest timed passes a run makes however short -seconds
// is: the output-repeats check needs two, a median wants three.
const minPasses = 3

// runEndToEnd measures one workload with tracing off: set up (three times,
// keeping the last engine), replay timed passes for the given wall time,
// then read the live heap with the engine still open.
func runEndToEnd(w workload, seed int64, seconds float64) (*workloadReport, error) {
	rep := &workloadReport{Workload: w.name, Why: w.why, Seed: seed, Sizes: sizesOf(w, setupReps, seconds)}
	cfg := legCfg{metrics: w.registry, shards: w.shards}

	var l *leg
	var in *input
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		if l != nil {
			l.sys.ing.Close()
		}
		var st setupTimes
		var err error
		if l, in, st, err = setUp(w, seed, cfg, nil, "e2e"); err != nil {
			return nil, err
		}
		setups = append(setups, st)
	}
	defer l.sys.ing.Close()

	var failures []error
	start := time.Now()
	for pass := 1; pass <= minPasses || time.Since(start).Seconds() < seconds; pass++ {
		pi, err := in.prepare(w.grain, pass)
		if err != nil {
			return nil, err
		}
		if err := l.record(l.runPass(pass, pi)); err != nil {
			failures = append(failures, err)
		}
	}

	// Live heap: the input is released first, the engine stays open with
	// its windows full.
	in = nil
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pool kept alive through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveMB := float64(ms.HeapAlloc) / 1e6

	if w.columnar {
		ok, err := l.sys.columnar()
		if err == nil && !ok {
			err = fmt.Errorf("engine fell back from the columnar path")
		}
		if err != nil {
			failures = append(failures, err)
			l.failed = totalOps(l.passes) // the fallback is silent: no pass can be trusted
		}
	}

	rep.Passes = len(l.passes)
	rep.Attempted = totalOps(l.passes)
	rep.Failed = l.failed
	rep.Correct = len(failures) == 0
	for _, err := range failures {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", w.name, err)
	}
	first := l.passes[0]
	rep.Output = map[string]int64{"emitted": first.emitted, "retracted": first.retracted, "results": int64(first.results)}

	var tps, allocs, setupS []float64
	var mallocs, records float64
	for _, p := range l.passes {
		tps = append(tps, float64(p.records)/p.wall.Seconds())
		allocs = append(allocs, float64(p.mallocs)/float64(p.records))
		mallocs += float64(p.mallocs)
		records += float64(p.records)
	}
	for _, st := range setups {
		setupS = append(setupS, st.total.Seconds())
	}
	// tuples_per_s is the fastest pass. The passes of a run do the same
	// work, and what makes one slower than another on a shared host is
	// interference, which only ever slows a pass down: the fastest pass is
	// the one disturbed least. Over ten runs per workload it repeated within
	// 8-17 % where the median pass repeated within 9-20 % (12.6 -> 8.1 % on
	// q6-groupby-col, 19.8 -> 11.6 % on mix16-registry, whose runs straddle
	// the host's fast and slow phases). allocs_per_tuple is the Mallocs
	// delta over all timed passes divided by all records.
	measured := map[string]value{
		"tuples_per_s":     {Value: slices.Max(tps), Samples: tps},
		"allocs_per_tuple": {Value: mallocs / records, Samples: allocs},
		"live_heap_mb":     {Value: liveMB},
		"setup_s":          {Value: median(setupS), Samples: setupS},
	}
	rep.Metrics = map[string]value{}
	for _, d := range endToEnd {
		v := measured[d.name]
		v.Unit = d.unit
		rep.Metrics[d.name] = v
	}

	us := func(ns func(callSummary) int64) float64 {
		return medianBy(l.passes, func(p passResult) float64 { return float64(ns(p.calls)) / 1e3 })
	}
	calls := first.calls.n
	rep.Latency = &latency{
		CallsPerPass: calls, BeyondP99: calls - (calls*99+99)/100,
		P50us: us(func(c callSummary) int64 { return c.p50 }),
		P99us: us(func(c callSummary) int64 { return c.p99 }),
		MaxUs: us(func(c callSummary) int64 { return c.mx }),
	}
	if !slices.ContainsFunc(l.passes, func(p passResult) bool { return !p.calls.p999ok }) {
		rep.Latency.P999us = us(func(c callSummary) int64 { return c.p999 })
	}
	if rep.Latency.BeyondP99 < minBeyond {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("only %d ingest calls per pass lie beyond p99; the p99 is not supported by its sample", rep.Latency.BeyondP99))
	}
	rep.SetupMs = map[string]float64{}
	for _, stage := range setupStages {
		rep.SetupMs[stage] = medianBy(setups, func(st setupTimes) float64 { return ms64(st.stage[stage]) })
	}
	return rep, nil
}

func ms64(d time.Duration) float64 { return float64(d) / 1e6 }

func totalOps(passes []passResult) int {
	n := 0
	for _, p := range passes {
		n += p.ops
	}
	return n
}
