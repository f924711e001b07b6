package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Severity is a health rule's state: OK < WARN < CRIT.
type Severity int

const (
	SevOK Severity = iota
	SevWarn
	SevCrit
)

func (s Severity) String() string {
	switch s {
	case SevOK:
		return "OK"
	case SevWarn:
		return "WARN"
	case SevCrit:
		return "CRIT"
	default:
		return "UNKNOWN"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name back, so HealthStatus round-trips
// for API consumers of /debug/health.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "OK":
		*s = SevOK
	case "WARN":
		*s = SevWarn
	case "CRIT":
		*s = SevCrit
	default:
		return fmt.Errorf("unknown severity %q", name)
	}
	return nil
}

// SignalSource selects how a Signal reads its series' history window.
type SignalSource int

const (
	// SourceValue reads the current value: cumulative total for counters,
	// observation count for histograms, the sampled value for gauges.
	SourceValue SignalSource = iota
	// SourceDelta sums the per-tick deltas across the window (counters,
	// histogram observation counts); for gauges it is newest minus oldest
	// value in the window.
	SourceDelta
	// SourceRate is SourceDelta divided by the window's elapsed seconds.
	SourceRate
	// SourceQuantile merges the window's bucket-wise histogram deltas
	// across all matching series and reads the Q-quantile of the combined
	// distribution (merging first keeps the quantile exact; quantiles of
	// per-series quantiles would not be).
	SourceQuantile
	// SourceAge reads a gauge holding a Nanotime() stamp and yields
	// nanoseconds since that stamp. A value <= 0 (never stamped) yields 0:
	// a process that has never checkpointed is not stale.
	SourceAge
)

func (s SignalSource) String() string {
	switch s {
	case SourceValue:
		return "value"
	case SourceDelta:
		return "delta"
	case SourceRate:
		return "rate"
	case SourceQuantile:
		return "quantile"
	case SourceAge:
		return "age"
	default:
		return "unknown"
	}
}

// SignalAgg folds the per-series readings of a signal that matches more
// than one label set into one value.
type SignalAgg int

const (
	AggSum SignalAgg = iota
	AggMax
	AggMin
)

// Signal is the left-hand side of a health rule: one scalar derived from
// the history window of every series matching (Series, Match).
type Signal struct {
	// Series is the metric name; Match is a label subset that matching
	// series must carry (empty matches every label set of the name).
	Series string
	Match  Labels
	// Source selects value/delta/rate/quantile/age; Window is the number
	// of sample ticks it looks back over (0 = whole retained window for
	// delta/quantile, 1 tick for rate).
	Source SignalSource
	Window int
	// Q is the quantile for SourceQuantile, e.g. 0.99.
	Q float64
	// Agg folds multiple matching series (default AggSum).
	Agg SignalAgg
	// Minus, when set, is evaluated the same way and subtracted — e.g.
	// staleness lag = max(upa_clock) − min(upa_watermark).
	Minus *Signal
}

// Rule is one declarative health check evaluated every sample tick.
// Thresholds compare the signal upward by default (breach when value >
// threshold) or downward with Below; NaN disables a threshold.
type Rule struct {
	Name string
	Help string
	Signal
	Warn  float64
	Crit  float64
	Below bool
	// ForTicks is how many consecutive breaching ticks escalation needs
	// (min-duration); HoldTicks is how many consecutive clear ticks
	// de-escalation needs (hysteresis). Both default to 1.
	ForTicks  int
	HoldTicks int
}

// Transition is one alert state change, delivered to every sink.
type Transition struct {
	Rule      string   `json:"rule"`
	From      Severity `json:"from"`
	To        Severity `json:"to"`
	Value     float64  `json:"value"`
	WallNanos int64    `json:"wall_nanos"`
}

// AlertSink receives alert transitions. Sinks run on the sampling
// goroutine; slow sinks delay the next tick, not the engine.
type AlertSink interface {
	Alert(t Transition)
}

// AlertFunc adapts a function to the AlertSink interface — the callback
// sink a future server's admission controller hangs off.
type AlertFunc func(t Transition)

// Alert implements AlertSink.
func (f AlertFunc) Alert(t Transition) { f(t) }

// LogAlertSink writes one human-readable line per transition.
type LogAlertSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogAlertSink builds a line-per-transition sink on w.
func NewLogAlertSink(w io.Writer) *LogAlertSink { return &LogAlertSink{w: w} }

// Alert implements AlertSink.
func (s *LogAlertSink) Alert(t Transition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "health: %s %s -> %s (value %.6g) at %s\n",
		t.Rule, t.From, t.To, t.Value,
		time.Unix(0, t.WallNanos).UTC().Format(time.RFC3339Nano))
}

// ruleState is one rule's alert state machine. Escalation requires
// ForTicks consecutive ticks at the candidate severity; de-escalation
// requires HoldTicks consecutive ticks — both reset whenever the raw
// classification changes, which is what suppresses flapping.
type ruleState struct {
	rule         Rule
	cur          Severity
	pending      Severity
	pendingTicks int
	sinceWall    int64
	transitions  int64
	lastValue    float64
	matched      bool

	sevGauge   *Gauge
	transCount *Counter
}

func (rs *ruleState) classify(v float64) Severity {
	breach := func(th float64) bool {
		if math.IsNaN(th) {
			return false
		}
		if rs.rule.Below {
			return v < th
		}
		return v > th
	}
	switch {
	case breach(rs.rule.Crit):
		return SevCrit
	case breach(rs.rule.Warn):
		return SevWarn
	default:
		return SevOK
	}
}

// tick advances the state machine one sample and reports a transition if
// one fired.
func (rs *ruleState) tick(v float64, matched bool, wall int64) (Transition, bool) {
	rs.lastValue = v
	rs.matched = matched
	raw := SevOK
	if matched {
		raw = rs.classify(v)
	}
	if raw == rs.cur {
		rs.pending = rs.cur
		rs.pendingTicks = 0
		return Transition{}, false
	}
	if raw != rs.pending {
		rs.pending = raw
		rs.pendingTicks = 0
	}
	rs.pendingTicks++
	need := rs.rule.ForTicks
	if raw < rs.cur {
		need = rs.rule.HoldTicks
	}
	if need < 1 {
		need = 1
	}
	if rs.pendingTicks < need {
		return Transition{}, false
	}
	t := Transition{Rule: rs.rule.Name, From: rs.cur, To: raw, Value: v, WallNanos: wall}
	rs.cur = raw
	rs.pending = raw
	rs.pendingTicks = 0
	rs.sinceWall = wall
	rs.transitions++
	return t, true
}

// Health evaluates a rule set against a History every sample tick and
// drives per-rule alert state machines. Its own state is exposed back
// into the registry as upa_health_severity{rule} and
// upa_health_transitions_total{rule}.
type Health struct {
	hist *History

	mu    sync.Mutex
	rules []*ruleState
	sinks []AlertSink
}

// Health metric names.
const (
	MetricHealthSeverity    = "upa_health_severity"
	MetricHealthTransitions = "upa_health_transitions_total"
)

// NewHealth builds a monitor over hist with the given rules and hooks its
// evaluation into hist's sample ticks. Rules with duplicate or empty
// names are kept as-is (names are only identifiers for sinks and
// exposition).
func NewHealth(hist *History, rules ...Rule) *Health {
	h := &Health{hist: hist}
	reg := hist.Registry()
	now := time.Now().UnixNano()
	for _, r := range rules {
		rs := &ruleState{rule: r, sinceWall: now}
		rs.sevGauge = reg.Gauge(MetricHealthSeverity,
			"Current severity per health rule (0=OK 1=WARN 2=CRIT).",
			Labels{"rule": r.Name})
		rs.transCount = reg.Counter(MetricHealthTransitions,
			"Alert state transitions per health rule.",
			Labels{"rule": r.Name})
		h.rules = append(h.rules, rs)
	}
	hist.AfterSample(h.evaluate)
	return h
}

// History returns the underlying sampler. Safe on nil.
func (h *Health) History() *History {
	if h == nil {
		return nil
	}
	return h.hist
}

// AddSink registers an alert sink. Safe on nil.
func (h *Health) AddSink(s AlertSink) {
	if h == nil || s == nil {
		return
	}
	h.mu.Lock()
	h.sinks = append(h.sinks, s)
	h.mu.Unlock()
}

// Start begins periodic sampling (and therefore evaluation) at the
// history's configured interval. Safe on nil.
func (h *Health) Start() {
	if h == nil {
		return
	}
	h.hist.Start()
}

// Stop halts periodic sampling. Safe on nil.
func (h *Health) Stop() {
	if h == nil {
		return
	}
	h.hist.Stop()
}

// Tick takes one manual sample (which runs an evaluation). Safe on nil.
func (h *Health) Tick() {
	if h == nil {
		return
	}
	h.hist.Sample()
}

// evaluate runs every rule against the freshly stored tick. It is
// registered as an AfterSample hook, so it runs on the sampling
// goroutine, strictly ordered with ticks.
func (h *Health) evaluate() {
	wall := time.Now().UnixNano()
	h.mu.Lock()
	rules := h.rules
	sinks := append([]AlertSink(nil), h.sinks...)
	h.mu.Unlock()
	var fired []Transition
	h.hist.mu.Lock()
	mono := int64(0)
	if h.hist.count > 0 {
		mono = h.hist.times[int((h.hist.count-1)%int64(h.hist.cfg.Capacity))].mono
	}
	for _, rs := range rules {
		v, matched := h.hist.evalSignalLocked(rs.rule.Signal, mono)
		t, ok := rs.tick(v, matched, wall)
		rs.sevGauge.Set(int64(rs.cur))
		if ok {
			rs.transCount.Inc()
			fired = append(fired, t)
		}
	}
	h.hist.mu.Unlock()
	for _, t := range fired {
		for _, s := range sinks {
			s.Alert(t)
		}
	}
}

// evalSignalLocked computes a signal over the retained window. The bool
// reports whether any series matched — unmatched signals read as 0 and
// leave their rules OK (a series that has never existed is not a fault).
// Caller holds h.mu.
func (h *History) evalSignalLocked(sig Signal, nowMono int64) (float64, bool) {
	rings := h.matchRingsLocked(sig.Series, sig.Match)
	if len(rings) == 0 {
		return 0, false
	}
	if sig.Source == SourceQuantile {
		var merged LogHistogramSnapshot
		for _, r := range rings {
			merged = merged.Merge(h.windowHistLocked(r, sig.Window))
		}
		if merged.Count == 0 {
			return 0, true
		}
		return float64(merged.Quantile(sig.Q)), true
	}
	agg := math.NaN()
	fold := func(v float64) {
		switch {
		case math.IsNaN(agg):
			agg = v
		case sig.Agg == AggMax && v > agg:
			agg = v
		case sig.Agg == AggMin && v < agg:
			agg = v
		case sig.Agg == AggSum:
			agg += v
		}
	}
	for _, r := range rings {
		switch sig.Source {
		case SourceValue:
			if r.kind == kindGauge {
				fold(float64(h.latestLocked(r)))
			} else {
				fold(float64(r.prev))
			}
		case SourceDelta:
			fold(float64(h.windowDeltaLocked(r, sig.Window)))
		case SourceRate:
			n := sig.Window
			if n <= 0 {
				n = 1
			}
			elapsed := h.windowElapsedLocked(n)
			if elapsed <= 0 {
				fold(0)
			} else {
				fold(float64(h.windowDeltaLocked(r, n)) / (float64(elapsed) / 1e9))
			}
		case SourceAge:
			v := h.latestLocked(r)
			if r.kind != kindGauge {
				v = r.prev
			}
			if v <= 0 {
				fold(0)
			} else {
				age := nowMono - v
				if age < 0 {
					age = 0
				}
				fold(float64(age))
			}
		}
	}
	if math.IsNaN(agg) {
		agg = 0
	}
	value := agg
	if sig.Minus != nil {
		m, ok := h.evalSignalLocked(*sig.Minus, nowMono)
		if ok {
			value -= m
		}
	}
	return value, true
}

// windowDeltaLocked is the windowed change of a series: sum of deltas for
// counters/histograms, newest minus oldest sampled value for gauges.
func (h *History) windowDeltaLocked(r *seriesRing, n int) int64 {
	if r.kind != kindGauge {
		return h.windowSumLocked(r, n)
	}
	avail := h.retainedLocked()
	if n <= 0 || n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	newest := r.vals[int((h.count-1)%int64(h.cfg.Capacity))]
	oldest := r.vals[int((h.count-int64(n))%int64(h.cfg.Capacity))]
	return newest - oldest
}

// RuleStatus is one rule's current public state.
type RuleStatus struct {
	Rule        string   `json:"rule"`
	Help        string   `json:"help,omitempty"`
	Severity    Severity `json:"severity"`
	Value       float64  `json:"value"`
	Warn        *float64 `json:"warn,omitempty"`
	Crit        *float64 `json:"crit,omitempty"`
	Below       bool     `json:"below,omitempty"`
	Matched     bool     `json:"matched"`
	SinceNanos  int64    `json:"since_unix_nanos"`
	Transitions int64    `json:"transitions"`
}

// HealthStatus is the whole monitor's current public state.
type HealthStatus struct {
	Overall Severity     `json:"overall"`
	Samples int64        `json:"samples"`
	AtNanos int64        `json:"at_unix_nanos"`
	Rules   []RuleStatus `json:"rules"`
}

func finiteThreshold(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// Status reports every rule's current severity and the overall worst.
// Safe on nil (reports OK with no rules).
func (h *Health) Status() HealthStatus {
	st := HealthStatus{Overall: SevOK, AtNanos: time.Now().UnixNano()}
	if h == nil {
		return st
	}
	st.Samples = h.hist.Samples()
	h.mu.Lock()
	defer h.mu.Unlock()
	// evaluate mutates rule state under the history's lock (it reads the
	// retained window in the same critical section), so reading it takes
	// that lock too; the order h.mu → hist.mu is never taken in reverse.
	h.hist.mu.Lock()
	defer h.hist.mu.Unlock()
	for _, rs := range h.rules {
		if rs.cur > st.Overall {
			st.Overall = rs.cur
		}
		st.Rules = append(st.Rules, RuleStatus{
			Rule:        rs.rule.Name,
			Help:        rs.rule.Help,
			Severity:    rs.cur,
			Value:       rs.lastValue,
			Warn:        finiteThreshold(rs.rule.Warn),
			Crit:        finiteThreshold(rs.rule.Crit),
			Below:       rs.rule.Below,
			Matched:     rs.matched,
			SinceNanos:  rs.sinceWall,
			Transitions: rs.transitions,
		})
	}
	return st
}

// Overall returns the worst current severity. Safe on nil (OK).
func (h *Health) Overall() Severity { return h.Status().Overall }

// WriteText renders the status as an aligned human-readable report.
func (st HealthStatus) WriteText(w io.Writer) {
	fmt.Fprintf(w, "health: %s (%d samples)\n", st.Overall, st.Samples)
	if len(st.Rules) == 0 {
		return
	}
	width := 0
	for _, r := range st.Rules {
		if len(r.Rule) > width {
			width = len(r.Rule)
		}
	}
	for _, r := range st.Rules {
		thr := ""
		cmp := ">"
		if r.Below {
			cmp = "<"
		}
		if r.Warn != nil {
			thr += fmt.Sprintf(" warn%s%.6g", cmp, *r.Warn)
		}
		if r.Crit != nil {
			thr += fmt.Sprintf(" crit%s%.6g", cmp, *r.Crit)
		}
		note := ""
		if !r.Matched {
			note = " (no series)"
		}
		fmt.Fprintf(w, "  %-*s %-4s value %.6g%s transitions %d%s\n",
			width, r.Rule, r.Severity, r.Value, thr, r.Transitions, note)
	}
}

// HealthPage serves /debug/health: JSON by default, HTML for browsers
// (?format=html or an Accept header preferring text/html). A CRIT overall
// answers 503 so load balancers and the CI smoke can gate on the status
// code alone.
func HealthPage(h *Health) Page {
	return Page{
		Path:  "/debug/health",
		Title: "health status (rules + alert state; ?format=html)",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Cache-Control", "no-cache")
			if h == nil {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"health monitoring disabled"}`+"\n")
				return
			}
			st := h.Status()
			code := http.StatusOK
			if st.Overall == SevCrit {
				code = http.StatusServiceUnavailable
			}
			format := req.URL.Query().Get("format")
			if format == "" && strings.Contains(req.Header.Get("Accept"), "text/html") {
				format = "html"
			}
			if format == "html" {
				w.Header().Set("Content-Type", "text/html; charset=utf-8")
				w.WriteHeader(code)
				writeHealthHTML(w, st)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(code)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(st)
		}),
	}
}

var sevColors = map[Severity]string{
	SevOK:   "#2e7d32",
	SevWarn: "#ef6c00",
	SevCrit: "#c62828",
}

func writeHealthHTML(w io.Writer, st HealthStatus) {
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><meta charset="utf-8">`+
		`<meta http-equiv="refresh" content="5"><title>health</title>`+
		`<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}`+
		`td,th{border:1px solid #ccc;padding:4px 10px;text-align:left}`+
		`.sev{font-weight:bold;color:#fff;padding:2px 8px;border-radius:3px}</style>`+
		`</head><body>`)
	fmt.Fprintf(w, `<h1>health: <span class="sev" style="background:%s">%s</span></h1>`,
		sevColors[st.Overall], st.Overall)
	fmt.Fprintf(w, `<p>%d samples · %s</p>`, st.Samples,
		time.Unix(0, st.AtNanos).UTC().Format(time.RFC3339))
	fmt.Fprintf(w, `<table><tr><th>rule</th><th>state</th><th>value</th>`+
		`<th>warn</th><th>crit</th><th>transitions</th><th>help</th></tr>`)
	rules := append([]RuleStatus(nil), st.Rules...)
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Severity > rules[j].Severity })
	for _, r := range rules {
		thr := func(p *float64) string {
			if p == nil {
				return "—"
			}
			cmp := ">"
			if r.Below {
				cmp = "<"
			}
			return fmt.Sprintf("%s%.6g", cmp, *p)
		}
		val := fmt.Sprintf("%.6g", r.Value)
		if !r.Matched {
			val += " (no series)"
		}
		fmt.Fprintf(w, `<tr><td>%s</td><td><span class="sev" style="background:%s">%s</span></td>`+
			`<td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>`,
			html.EscapeString(r.Rule), sevColors[r.Severity], r.Severity,
			html.EscapeString(val), thr(r.Warn), thr(r.Crit), r.Transitions,
			html.EscapeString(r.Help))
	}
	fmt.Fprintf(w, `</table></body></html>`)
}
