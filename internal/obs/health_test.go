package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestHealth wires a manual-tick monitor over a fresh registry.
func newTestHealth(rules ...Rule) (*Registry, *Health) {
	reg := NewRegistry()
	hist := NewHistory(reg, HistoryConfig{Capacity: 32})
	return reg, NewHealth(hist, rules...)
}

// windowDelta is a rule body: the deltas of counter name summed over the
// last n ticks.
func windowDelta(name string, n int) func(*History) (float64, bool) {
	return func(h *History) (float64, bool) {
		wins := h.Window(name, n)
		sum := int64(0)
		for _, w := range wins {
			for _, v := range w.Values {
				sum += v
			}
		}
		return float64(sum), len(wins) > 0
	}
}

// latest is a rule body: the newest sampled value of gauge name.
func latest(name string) func(*History) (float64, bool) {
	return func(h *History) (float64, bool) {
		wins := h.Window(name, 1)
		if len(wins) == 0 {
			return 0, false
		}
		return float64(wins[0].Cumulative), true
	}
}

func TestHealthEscalationNeedsForTicks(t *testing.T) {
	reg, h := newTestHealth(Rule{
		Name: "errs",
		Eval: windowDelta("errs", 4),
		Warn: math.NaN(), Crit: 0, // any windowed error is CRIT
		ForTicks: 2, HoldTicks: 2,
	})
	var got []Transition
	h.AddSink(AlertFunc(func(tr Transition) { got = append(got, tr) }))

	c := reg.Counter("errs", "", nil)
	h.Tick() // baseline
	if h.Overall() != SevOK {
		t.Fatalf("baseline severity = %v, want OK", h.Overall())
	}
	c.Inc()
	h.Tick() // first breaching tick: pending only
	if h.Overall() != SevOK || len(got) != 0 {
		t.Fatalf("after 1 breaching tick: severity %v transitions %d, want OK/0", h.Overall(), len(got))
	}
	h.Tick() // second consecutive breach (delta still in the 4-tick window)
	if h.Overall() != SevCrit {
		t.Fatalf("after 2 breaching ticks: severity = %v, want CRIT", h.Overall())
	}
	if len(got) != 1 || got[0].From != SevOK || got[0].To != SevCrit {
		t.Fatalf("transitions = %+v, want one OK->CRIT", got)
	}

	// Drain: once the delta leaves the window the raw state clears, and
	// HoldTicks consecutive clear ticks de-escalate.
	for i := 0; i < 6 && h.Overall() != SevOK; i++ {
		h.Tick()
	}
	if h.Overall() != SevOK {
		t.Fatalf("rule never recovered: severity = %v", h.Overall())
	}
	last := got[len(got)-1]
	if last.From != SevCrit || last.To != SevOK {
		t.Fatalf("recovery transition = %+v, want CRIT->OK", last)
	}

	// Self-exposition: the severity gauge and transition counter track the
	// state machine.
	snap := reg.Snapshot()
	sevKey := MetricHealthSeverity + `{rule="errs"}`
	transKey := MetricHealthTransitions + `{rule="errs"}`
	if v, ok := snap.Gauges[sevKey]; !ok || v != int64(SevOK) {
		t.Errorf("severity gauge %s = %d (present %v), want %d", sevKey, v, ok, int64(SevOK))
	}
	if v, ok := snap.Counters[transKey]; !ok || v != 2 {
		t.Errorf("transition counter %s = %d (present %v), want 2", transKey, v, ok)
	}
}

// TestHealthFlapSuppression alternates breach and clear every tick; with
// ForTicks 2 the pending escalation resets each time and no transition ever
// fires.
func TestHealthFlapSuppression(t *testing.T) {
	reg, h := newTestHealth(Rule{
		Name: "flappy",
		Eval: windowDelta("errs", 1),
		Warn: math.NaN(), Crit: 0,
		ForTicks: 2, HoldTicks: 2,
	})
	fired := 0
	h.AddSink(AlertFunc(func(Transition) { fired++ }))
	c := reg.Counter("errs", "", nil)
	h.Tick() // baseline
	for i := 0; i < 10; i++ {
		c.Inc()
		h.Tick() // breach (pending 1 of 2)
		h.Tick() // clear — resets the pending escalation
	}
	if fired != 0 || h.Overall() != SevOK {
		t.Errorf("flapping signal fired %d transitions, severity %v; want 0/OK", fired, h.Overall())
	}
}

func TestHealthWarnThenCrit(t *testing.T) {
	reg, h := newTestHealth(Rule{
		Name: "depth",
		Eval: latest("depth"),
		Warn: 5, Crit: 10,
		ForTicks: 1, HoldTicks: 1,
	})
	g := reg.Gauge("depth", "", nil)
	for _, step := range []struct {
		depth int64
		want  Severity
	}{{7, SevWarn}, {11, SevCrit}, {10, SevWarn}, {1, SevOK}} {
		g.Set(step.depth)
		h.Tick()
		if got := h.Status().Rules[0].Severity; got != step.want {
			t.Errorf("depth at %d: severity %v, want %v", step.depth, got, step.want)
		}
	}
}

func TestHealthUnmatchedSeriesStaysOK(t *testing.T) {
	_, h := newTestHealth(Rule{
		Name: "ghost",
		Eval: latest("never_registered"),
		Warn: math.NaN(), Crit: 0,
		ForTicks: 1, HoldTicks: 1,
	})
	h.Tick()
	h.Tick()
	st := h.Status()
	if st.Overall != SevOK || st.Rules[0].Matched {
		t.Errorf("unmatched rule: overall %v matched %v, want OK/false", st.Overall, st.Rules[0].Matched)
	}
	var buf bytes.Buffer
	st.WriteText(&buf)
	if !strings.Contains(buf.String(), "(no series)") {
		t.Errorf("WriteText missing the (no series) note:\n%s", buf.String())
	}
}

func TestHealthStatusJSONWithNaNThresholds(t *testing.T) {
	reg, h := newTestHealth(Rule{
		Name: "r",
		Eval: latest("g"),
		Warn: math.NaN(), Crit: 10,
		ForTicks: 1, HoldTicks: 1,
	})
	reg.Gauge("g", "", nil).Set(3)
	h.Tick()
	data, err := json.Marshal(h.Status())
	if err != nil {
		t.Fatalf("Status with NaN warn threshold failed to marshal: %v", err)
	}
	if strings.Contains(string(data), `"warn"`) {
		t.Errorf("disabled warn threshold leaked into JSON: %s", data)
	}
	if !strings.Contains(string(data), `"crit":10`) {
		t.Errorf("crit threshold missing from JSON: %s", data)
	}
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.AddSink(AlertFunc(func(Transition) {}))
	h.Start()
	h.Stop()
	h.Tick()
	if h.Overall() != SevOK || h.History() != nil {
		t.Error("nil Health must report OK with no history")
	}
	st := h.Status()
	if len(st.Rules) != 0 {
		t.Error("nil Health must report no rules")
	}
}

func TestLogAlertSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewLogAlertSink(&buf)
	s.Alert(Transition{Rule: "r", From: SevOK, To: SevCrit, Value: 42, WallNanos: 0})
	line := buf.String()
	if !strings.HasPrefix(line, "health: r OK -> CRIT (value 42)") {
		t.Errorf("log line = %q", line)
	}
}

func TestHealthPage(t *testing.T) {
	reg, h := newTestHealth(Rule{
		Name: "depth", Help: "queue depth",
		Eval: latest("depth"),
		Warn: math.NaN(), Crit: 10,
		ForTicks: 1, HoldTicks: 1,
	})
	g := reg.Gauge("depth", "", nil)
	g.Set(1)
	h.Tick()
	page := HealthPage(h)

	get := func(url string, hdr map[string]string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", url, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		page.Handler.ServeHTTP(rec, req)
		return rec
	}

	rec := get("/debug/health", nil)
	if rec.Code != 200 {
		t.Fatalf("OK status = %d, want 200", rec.Code)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", cc)
	}
	var st HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("health body not JSON: %v", err)
	}
	if st.Overall != SevOK || len(st.Rules) != 1 {
		t.Errorf("status = %+v, want OK with one rule", st)
	}

	rec = get("/debug/health?format=html", nil)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("html Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "depth") {
		t.Error("html body missing the rule name")
	}
	rec = get("/debug/health", map[string]string{"Accept": "text/html,application/xhtml+xml"})
	if !strings.Contains(rec.Header().Get("Content-Type"), "text/html") {
		t.Error("Accept: text/html not honored")
	}

	// Trip the rule: a CRIT overall must answer 503 so CI and load
	// balancers can gate on the status code alone.
	g.Set(11)
	h.Tick()
	rec = get("/debug/health", nil)
	if rec.Code != 503 {
		t.Errorf("CRIT status = %d, want 503", rec.Code)
	}

	nilRec := httptest.NewRecorder()
	HealthPage(nil).Handler.ServeHTTP(nilRec, httptest.NewRequest("GET", "/debug/health", nil))
	if nilRec.Code != 503 || !strings.Contains(nilRec.Body.String(), "disabled") {
		t.Errorf("nil monitor: status %d body %q, want 503/disabled", nilRec.Code, nilRec.Body.String())
	}
}
