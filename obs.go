package repro

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Observability re-exports: the metrics registry, exposition endpoint and
// health monitor of internal/obs, attachable to a compiled query via
// WithMetrics and WithHealth. Both are off by default; a disabled engine pays
// atomic counter adds only.
type (
	// MetricsRegistry holds named counters, gauges, and histograms; an
	// engine compiled WithMetrics registers its instruments here (see the
	// upa_* series in DESIGN.md) and enables per-Push latency sampling.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// MetricsServer is a running HTTP exposition endpoint.
	MetricsServer = obs.Server
	// MetricsPage is one extra endpoint mounted on the exposition handler,
	// e.g. Registry.PlanPage's /debug/plan.
	MetricsPage = obs.Page
	// LatencySnapshot is a point-in-time reading of a delta-latency
	// distribution: count, sum, max, and interpolated p50/p95/p99, all in
	// nanoseconds (see Query.DeltaLatency).
	LatencySnapshot = obs.LogHistogramSnapshot
	// MetricsHistory is the in-process ring-buffer sampler behind
	// WithHealth: per-series retained windows of counter deltas, gauge
	// values, and bucket-wise latency distributions.
	MetricsHistory = obs.History
	// HealthMonitor evaluates the engine's built-in rules over a
	// MetricsHistory every sample tick and drives per-rule OK→WARN→CRIT alert state
	// machines (see WithHealth and Registry.Health).
	HealthMonitor = obs.Health
	// HealthStatus is a point-in-time report of every rule's severity.
	HealthStatus = obs.HealthStatus
	// HealthSeverity is a rule state: SevOK < SevWarn < SevCrit.
	HealthSeverity = obs.Severity
	// AlertTransition is one alert state change delivered to sinks.
	AlertTransition = obs.Transition
	// AlertSink receives alert transitions (see NewLogAlertSink and
	// AlertFunc).
	AlertSink = obs.AlertSink
	// HealthSLO carries deployment-specific targets for the engine's
	// built-in rules (delta-latency p99, checkpoint age).
	HealthSLO = exec.HealthSLO
)

// Health severities.
const (
	SevOK   = obs.SevOK
	SevWarn = obs.SevWarn
	SevCrit = obs.SevCrit
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithMetrics registers the compiled engine's instruments in reg and
// enables wall-clock Push latency sampling.
func WithMetrics(reg *MetricsRegistry) RegistryOption {
	return registryOption(func(c *compileCfg) { c.execCfg.Metrics = reg })
}

// WithQueryLabel merges a {query: name} label into every metric series the
// compiled engine registers, so one registry (and one exposition endpoint)
// can carry several queries' series side by side.
func WithQueryLabel(name string) RegistryOption {
	return registryOption(func(c *compileCfg) {
		merged := obs.Labels{}
		for k, v := range c.execCfg.MetricLabels {
			merged[k] = v
		}
		merged["query"] = name
		c.execCfg.MetricLabels = merged
	})
}

// MetricsHandler serves reg over HTTP: /metrics (Prometheus text format),
// /metrics.json, and /debug/pprof/. Extra pages (e.g. Registry.PlanPage) are
// mounted alongside and listed on the index.
func MetricsHandler(reg *MetricsRegistry, pages ...MetricsPage) http.Handler {
	return obs.Handler(reg, pages...)
}

// ServeMetrics binds addr (e.g. ":9090") and serves MetricsHandler in the
// background until the returned server is closed.
func ServeMetrics(addr string, reg *MetricsRegistry, pages ...MetricsPage) (*MetricsServer, error) {
	return obs.Serve(addr, reg, pages...)
}

// PatternViolations returns the total number of update-pattern conformance
// violations the engine's per-edge monitor has recorded: retractions that
// exceeded their operator's declared pattern class (expirations on a
// monotonic edge, out-of-insertion-order expirations on a weakest/FIFO
// edge, premature expirations on a weak edge). Zero on a conformant run.
// Per-operator and per-kind breakdowns are in OpStats, EXPLAIN ANALYZE, the
// upa_pattern_violations_total series, and ConformancePage.
func (e *Engine) PatternViolations() int64 { return e.Registry.e.Violations() }

// NewLogAlertSink builds an alert sink that writes one human-readable line
// per transition to w.
func NewLogAlertSink(w io.Writer) AlertSink { return obs.NewLogAlertSink(w) }

// AlertFunc adapts a callback to the AlertSink interface.
func AlertFunc(fn func(AlertTransition)) AlertSink { return obs.AlertFunc(fn) }

// HealthConfig parameterizes WithHealth.
type HealthConfig struct {
	// Interval is the sampling cadence (default 1s). A negative interval
	// disables the background sampler: ticks happen only via
	// Health().Tick(), which tests and single-threaded drivers use for
	// determinism.
	Interval time.Duration
	// SLO parameterizes the engine's built-in rules (latency p99 target,
	// checkpoint age, evaluation window).
	SLO HealthSLO
	// Sinks receive alert transitions.
	Sinks []AlertSink
}

// WithHealth attaches the self-monitoring subsystem to the compiled
// engine: a history sampler over the engine's registry (plus process-level
// build/uptime/runtime series), the engine's built-in health rules
// (pattern violations, premature expirations, partition-join wait, latency
// SLO, staleness lag, checkpoint age), and an alert
// state machine per rule. Implies metrics: when no WithMetrics registry
// was given, a private one is created. The sampler goroutine starts at
// Compile and stops at Close.
func WithHealth(hc HealthConfig) RegistryOption {
	return registryOption(func(c *compileCfg) { c.health = &hc })
}

// newHealth builds the health subsystem over a constructed executor — its
// registry and its built-in rules; Compile and NewRegistry call it when
// WithHealth was given.
func newHealth(ex *exec.Engine, hc HealthConfig) *HealthMonitor {
	var hcfg obs.HistoryConfig
	if hc.Interval > 0 {
		hcfg.Interval = hc.Interval
	}
	hist := obs.NewHistory(ex.Metrics(), hcfg)
	hist.BeforeSample(obs.RegisterProcessMetrics(ex.Metrics()))
	h := obs.NewHealth(hist, ex.HealthRules(hc.SLO)...)
	for _, s := range hc.Sinks {
		h.AddSink(s)
	}
	if hc.Interval >= 0 {
		h.Start()
	}
	return h
}

// HealthPage returns the /debug/health page for the exposition endpoint:
// every rule's severity and signal value as JSON (or HTML with
// ?format=html), answering 503 when overall health is CRIT. Serves an
// "health monitoring disabled" error unless compiled WithHealth.
func (e *Engine) HealthPage() MetricsPage { return obs.HealthPage(e.health) }

// HistoryPage returns the /debug/history page: the sampler's retained
// per-series windows (?series=NAME&n=TICKS) as JSON. Serves an error
// unless compiled WithHealth.
func (e *Engine) HistoryPage() MetricsPage { return obs.HistoryPage(e.health.History()) }

// ConformancePage returns a /debug/conformance page for the exposition
// endpoint: one row per operator with its declared and observed
// update-pattern classes and violation counts by kind, plus the
// delta-latency percentiles — the conformance monitor's verdict at a
// glance. Reads are atomic; the page never blocks the engine.
func (e *Engine) ConformancePage() MetricsPage {
	return MetricsPage{
		Path:  "/debug/conformance",
		Title: "update-pattern conformance: declared vs observed per operator",
		Handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = exec.WriteConformance(w, e.OpStats())
			pos, neg := e.DeltaLatency()
			fmt.Fprintf(w, "\ndelta latency (ns): pos n=%d p50=%d p95=%d p99=%d max=%d\n",
				pos.Count, pos.P50, pos.P95, pos.P99, pos.Max)
			fmt.Fprintf(w, "                    neg n=%d p50=%d p95=%d p99=%d max=%d\n",
				neg.Count, neg.P50, neg.P95, neg.P99, neg.Max)
		},
	}
}
