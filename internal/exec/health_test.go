package exec

// Fault-injection tests for the built-in health rules: builtinHealthRules
// takes only scalars, so every fault is injected purely at the metrics
// layer — bump the counter / skew the gauge an instrumented engine would
// have written — and the test asserts the rule escalates, honors its
// flap-suppression ticks, and returns to OK when the fault clears. CI's
// fault-injection step runs exactly these (go test -run TestBuiltinRule).

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// newRuleHarness wires a manual-tick monitor with the engine's built-in
// rules over an empty registry; tests then materialize only the series
// they are faulting.
func newRuleHarness(slo HealthSLO) (*obs.Registry, *obs.Health) {
	reg := obs.NewRegistry()
	hist := obs.NewHistory(reg, obs.HistoryConfig{Capacity: 32})
	rules := builtinHealthRules(plan.UPA, 1, 5, slo)
	return reg, obs.NewHealth(hist, rules...)
}

func ruleStatus(t *testing.T, h *obs.Health, name string) obs.RuleStatus {
	t.Helper()
	for _, r := range h.Status().Rules {
		if r.Rule == name {
			return r
		}
	}
	t.Fatalf("no rule %q in status", name)
	return obs.RuleStatus{}
}

// tickUntil ticks at most max times until the named rule reaches sev,
// returning how many ticks it took (-1 when it never got there).
func tickUntil(t *testing.T, h *obs.Health, name string, sev obs.Severity, max int) int {
	t.Helper()
	for i := 0; i < max; i++ {
		if ruleStatus(t, h, name).Severity == sev {
			return i
		}
		h.Tick()
	}
	if ruleStatus(t, h, name).Severity == sev {
		return max
	}
	return -1
}

func TestBuiltinRulePatternViolations(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3})
	c := reg.Counter(MetricPatternViolations, "", obs.Labels{"node": "0:join", "kind": ViolationExpiration})
	h.Tick() // baseline
	if got := ruleStatus(t, h, RulePatternViolations); got.Severity != obs.SevOK {
		t.Fatalf("clean baseline severity = %v, want OK", got.Severity)
	}
	c.Inc()
	h.Tick() // ForTicks 1: a single violation in the window is CRIT at once
	if got := ruleStatus(t, h, RulePatternViolations); got.Severity != obs.SevCrit {
		t.Fatalf("severity after violation = %v, want CRIT", got.Severity)
	}
	// The delta leaves the 3-tick window, then HoldTicks 2 clear ticks
	// de-escalate.
	if n := tickUntil(t, h, RulePatternViolations, obs.SevOK, 8); n < 0 {
		t.Fatal("rule never recovered after the window drained")
	}
	if got := ruleStatus(t, h, RulePatternViolations); got.Transitions != 2 {
		t.Errorf("transitions = %d, want 2 (up and back down)", got.Transitions)
	}
}

func TestBuiltinRulePrematureExpirations(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3})
	exp := reg.Counter(MetricPatternViolations, "", obs.Labels{"node": "0:join", "kind": ViolationExpiration})
	pre := reg.Counter(MetricPatternViolations, "", obs.Labels{"node": "0:join", "kind": ViolationPremature})
	h.Tick()
	exp.Inc() // a non-premature violation must not trip the premature rule
	h.Tick()
	if got := ruleStatus(t, h, RulePrematureExpirations); got.Severity != obs.SevOK {
		t.Fatalf("premature rule tripped by an expiration violation: %v", got.Severity)
	}
	if got := ruleStatus(t, h, RulePatternViolations); got.Severity != obs.SevCrit {
		t.Fatalf("generic violation rule missed the expiration violation: %v", got.Severity)
	}
	pre.Inc()
	h.Tick()
	if got := ruleStatus(t, h, RulePrematureExpirations); got.Severity != obs.SevCrit {
		t.Fatalf("premature rule severity = %v, want CRIT", got.Severity)
	}
	if n := tickUntil(t, h, RulePrematureExpirations, obs.SevOK, 8); n < 0 {
		t.Fatal("premature rule never recovered")
	}
}

func TestBuiltinRuleShardBlocked(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3})
	blocked := reg.Counter(MetricShardQueueBlocked, "", nil)
	h.Tick() // baseline
	// The caller reports far more join-wait nanos than wall time elapses
	// between manual ticks — a rate deep past the 0.6 s/s CRIT line.
	blocked.Add(5e9)
	h.Tick()
	blocked.Add(5e9)
	h.Tick()
	if got := ruleStatus(t, h, RuleShardBlocked); got.Severity != obs.SevCrit {
		t.Fatalf("severity under sustained blocking = %v (value %g), want CRIT", got.Severity, got.Value)
	}
	if n := tickUntil(t, h, RuleShardBlocked, obs.SevOK, 10); n < 0 {
		t.Fatal("blocked-time rule never recovered after blocking stopped")
	}
}

func TestBuiltinRuleStalenessLag(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3})
	clock := reg.Gauge(MetricClock, "", nil)
	wm := reg.Gauge(MetricWatermark, "", nil)
	// maint = max(eager 1, lazy 5) = 5 → WARN > 10, CRIT > 40.
	clock.Set(100)
	wm.Set(95)
	h.Tick()
	h.Tick()
	if got := ruleStatus(t, h, RuleStalenessLag); got.Severity != obs.SevOK {
		t.Fatalf("lag 5 severity = %v, want OK (within the maintenance bound)", got.Severity)
	}
	clock.Set(200) // watermark stalls while the clock advances
	h.Tick()
	h.Tick()
	got := ruleStatus(t, h, RuleStalenessLag)
	if got.Severity != obs.SevCrit || got.Value != 105 {
		t.Fatalf("stalled watermark: severity %v value %g, want CRIT/105", got.Severity, got.Value)
	}
	wm.Set(195) // maintenance catches up
	h.Tick()
	h.Tick()
	if got := ruleStatus(t, h, RuleStalenessLag); got.Severity != obs.SevOK {
		t.Fatalf("severity after catch-up = %v, want OK", got.Severity)
	}
}

func TestBuiltinRuleCheckpointAge(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3, CheckpointAge: 10 * time.Millisecond})
	last := reg.Gauge(MetricCheckpointLast, "", nil)
	h.Tick() // stamp 0: never checkpointed is healthy, not stale
	if got := ruleStatus(t, h, RuleCheckpointAge); got.Severity != obs.SevOK {
		t.Fatalf("never-checkpointed severity = %v, want OK", got.Severity)
	}
	time.Sleep(15 * time.Millisecond) // ensure Nanotime() is past the budget
	last.Set(1)                       // last checkpoint at process start, 10 ms budget long blown
	h.Tick()
	if got := ruleStatus(t, h, RuleCheckpointAge); got.Severity != obs.SevCrit {
		t.Fatalf("stale checkpoint severity = %v (value %g), want CRIT", got.Severity, got.Value)
	}
	last.Set(obs.Nanotime()) // fresh checkpoint completes
	h.Tick()
	if got := ruleStatus(t, h, RuleCheckpointAge); got.Severity != obs.SevOK {
		t.Fatalf("fresh checkpoint severity = %v, want OK", got.Severity)
	}
}

func TestBuiltinRuleDeltaP99(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3, DeltaP99: time.Millisecond})
	lat := reg.LogHistogram(MetricDeltaLatency, "", obs.Labels{"polarity": PolarityPos})
	reg.LogHistogram(MetricDeltaLatency, "", obs.Labels{"polarity": PolarityNeg}).
		ObserveN(10e9, 100) // neg-polarity tail must not count against the SLO
	h.Tick() // baseline
	lat.ObserveN((5 * time.Millisecond).Nanoseconds(), 50)
	h.Tick()
	h.Tick() // ForTicks 2
	got := ruleStatus(t, h, RuleDeltaP99)
	if got.Severity != obs.SevCrit {
		t.Fatalf("p99 5ms vs 1ms SLO: severity %v (value %g), want CRIT", got.Severity, got.Value)
	}
	if n := tickUntil(t, h, RuleDeltaP99, obs.SevOK, 10); n < 0 {
		t.Fatal("latency rule never recovered after the slow window drained")
	}
}

func TestBuiltinRuleDeltaP99DisabledWithoutSLO(t *testing.T) {
	rules := builtinHealthRules(plan.UPA, 1, 5, HealthSLO{})
	for _, r := range rules {
		if r.Name == RuleDeltaP99 {
			t.Fatal("delta-p99 rule present without an SLO")
		}
	}
	if len(rules) != 5 {
		t.Errorf("builtin rule count = %d, want 5 without a latency SLO", len(rules))
	}
}

// TestBuiltinRuleStalenessLagAcrossShards: the lag is the largest clock
// minus the smallest watermark over every label set, so one stalled
// partition counts even when another has caught up.
func TestBuiltinRuleStalenessLagAcrossShards(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3})
	reg.Gauge(MetricClock, "", obs.Labels{"shard": "0"}).Set(100)
	reg.Gauge(MetricClock, "", obs.Labels{"shard": "1"}).Set(120)
	reg.Gauge(MetricWatermark, "", obs.Labels{"shard": "0"}).Set(90)
	reg.Gauge(MetricWatermark, "", obs.Labels{"shard": "1"}).Set(110)
	h.Tick()
	h.Tick()
	// max(clock) 120 − min(watermark) 90 = 30: past WARN (10), short of
	// CRIT (40).
	if got := ruleStatus(t, h, RuleStalenessLag); got.Value != 30 || got.Severity != obs.SevWarn {
		t.Fatalf("lag across shards: value %g severity %v, want 30/WARN", got.Value, got.Severity)
	}
}

// TestBuiltinRuleDeltaP99MergesShards: the p99 is taken over the merged
// windows of every positive-polarity series, so a tail that lives in one
// partition's series alone is seen, and the negative polarity's is not.
func TestBuiltinRuleDeltaP99MergesShards(t *testing.T) {
	reg, h := newRuleHarness(HealthSLO{Window: 3, DeltaP99: time.Millisecond})
	pos0 := reg.LogHistogram(MetricDeltaLatency, "", obs.Labels{"polarity": PolarityPos, "shard": "0"})
	pos1 := reg.LogHistogram(MetricDeltaLatency, "", obs.Labels{"polarity": PolarityPos, "shard": "1"})
	neg := reg.LogHistogram(MetricDeltaLatency, "", obs.Labels{"polarity": PolarityNeg, "shard": "0"})
	h.Tick() // baseline
	pos0.ObserveN(100, 10)
	pos1.ObserveN(1<<24, 10)
	neg.ObserveN(1<<30, 50)
	h.Tick()
	got := ruleStatus(t, h, RuleDeltaP99)
	if got.Value < 1<<23 || got.Value > 1<<29 {
		t.Fatalf("p99 = %g, want shard 1's positive tail (>= 2^23) without the negative one (< 2^29)", got.Value)
	}
}

// TestQuantileRuleOnRefreshNanos: the history window of one of the engine's
// call-latency series must carry the calls' distribution, so a rule or a
// /debug/history reader can take its quantiles. These series were once a
// second, fixed-bucket histogram type the history sampler kept no
// distributions for, so a quantile over them read 0 forever however slow
// the call.
func TestQuantileRuleOnRefreshNanos(t *testing.T) {
	reg := obs.NewRegistry()
	eng := buildEngine(t, simpleSelect(10), plan.UPA, Config{Metrics: reg})
	h := obs.NewHealth(obs.NewHistory(reg, obs.HistoryConfig{Capacity: 16}), obs.Rule{
		Name: "refresh-p99",
		Eval: func(h *obs.History) (float64, bool) {
			var merged obs.LogHistogramSnapshot
			wins := h.Window(MetricRefreshNanos, 4)
			for _, sw := range wins {
				merged = merged.Merge(*sw.Quantiles)
			}
			return float64(merged.Quantile(0.99)), len(wins) > 0
		},
		Warn: math.NaN(), Crit: 1, // any Sync slower than a nanosecond
		ForTicks: 1, HoldTicks: 1,
	})
	h.Tick() // baseline
	for ts := int64(1); ts <= 3; ts++ {
		if err := eng.Push(0, ts, tuple.Int(ts), tuple.String_("ftp"), tuple.Int(1)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		h.Tick()
	}
	if got := ruleStatus(t, h, "refresh-p99"); got.Severity != obs.SevCrit || got.Value <= 1 {
		t.Fatalf("p99 of %s: severity %v value %g, want CRIT above 1 ns", MetricRefreshNanos, got.Severity, got.Value)
	}
}

// TestEngineHealthLiveIngest attaches the sampler and the engine's own
// rule set to a live instrumented engine and hammers ingest while the
// sampling goroutine runs at full tilt — under -race this is the
// subsystem-vs-engine thread-safety gate, and on a healthy run every rule
// must hold OK.
func TestEngineHealthLiveIngest(t *testing.T) {
	eng := benchQ1Engine(t, 5000, true, true)
	hist := obs.NewHistory(eng.Metrics(), obs.HistoryConfig{Capacity: 64, Interval: time.Millisecond})
	var alerts []obs.Transition
	var mu sync.Mutex
	h := obs.NewHealth(hist, eng.HealthRules(HealthSLO{})...)
	h.AddSink(obs.AlertFunc(func(tr obs.Transition) {
		mu.Lock()
		alerts = append(alerts, tr)
		mu.Unlock()
	}))
	h.Start()

	batch := benchBatch()
	base := int64(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			hist.Window(MetricDeltaLatency, 8)
			h.Status()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < 400; i++ {
		restamp(batch, base)
		if err := eng.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		base += 4
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	<-done
	h.Stop()
	h.Tick() // deterministic final evaluation

	if hist.Samples() == 0 {
		t.Error("sampler took no ticks during ingest")
	}
	if got := h.Overall(); got != obs.SevOK {
		t.Errorf("healthy ingest ended %v, want OK; status:\n%+v", got, h.Status().Rules)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(alerts) != 0 {
		t.Errorf("healthy ingest fired %d alerts: %+v", len(alerts), alerts)
	}
}

// BenchmarkIngestColQ1UPAHealth is BenchmarkIngestColQ1UPA plus the full
// health subsystem live (sampler goroutine at the default 1 s interval,
// built-in rules evaluating every tick); the difference between the two is
// the subsystem's overhead.
func BenchmarkIngestColQ1UPAHealth(b *testing.B) {
	eng := benchQ1Engine(b, 5000, true, true)
	hist := obs.NewHistory(eng.Metrics(), obs.HistoryConfig{})
	h := obs.NewHealth(hist, eng.HealthRules(HealthSLO{DeltaP99: time.Second})...)
	h.Start()
	defer h.Stop()
	batch := benchBatch()
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restamp(batch, base)
		if err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		base += 4
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}
