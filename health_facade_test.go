package repro_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

func healthJoinQuery() repro.Node {
	schema := linkSchema()
	left := repro.Stream(0, schema, repro.TimeWindow(10)).
		Where(repro.Col("proto").EqStr("ftp"))
	right := repro.Stream(1, schema, repro.TimeWindow(10)).
		Where(repro.Col("proto").EqStr("ftp"))
	return left.JoinOn(right, "src")
}

// TestWithHealthManualTicks drives the whole facade deterministically: a
// negative interval disables the background sampler, so the test owns
// every tick, trips the built-in delta-p99 rule with a 1 ns latency SLO,
// and reads the verdict back through Health(), the alert sink, and both
// debug pages.
func TestWithHealthManualTicks(t *testing.T) {
	var alerts []repro.AlertTransition
	eng, err := repro.Compile(healthJoinQuery(), repro.UPA, repro.WithHealth(repro.HealthConfig{
		Interval: -1,
		SLO:      repro.HealthSLO{DeltaP99: time.Nanosecond, Window: 4},
		Sinks: []repro.AlertSink{repro.AlertFunc(func(tr repro.AlertTransition) {
			alerts = append(alerts, tr)
		})},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := eng.Health()
	if h == nil {
		t.Fatal("Health() is nil despite WithHealth")
	}

	h.Tick() // baseline
	for i := int64(0); i < 200; i++ {
		if err := eng.Push(int(i%2), i/20, repro.Int(i/2), repro.Str("ftp"), repro.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Tick()
	h.Tick() // delta-p99 escalates after ForTicks 2

	st := h.Status()
	if st.Overall != repro.SevCrit {
		t.Fatalf("overall = %v, want CRIT from the delta-p99 rule\n%+v", st.Overall, st.Rules)
	}
	names := map[string]bool{}
	for _, r := range st.Rules {
		names[r.Rule] = true
	}
	for _, want := range []string{"pattern-violations", "premature-expirations", "shard-blocked", "staleness-lag", "delta-p99", "checkpoint-age"} {
		if !names[want] {
			t.Errorf("rule %q missing from status (got %v)", want, names)
		}
	}
	if len(alerts) != 1 || alerts[0].Rule != "delta-p99" || alerts[0].To != repro.SevCrit {
		t.Errorf("alerts = %+v, want one delta-p99 OK->CRIT", alerts)
	}

	// WithHealth registers the process-level series via the sampler's
	// before-hook; they must be in the history.
	hist := h.History()
	for _, series := range []string{"upa_build_info", "upa_uptime_seconds", "upa_goroutines"} {
		if len(hist.Window(series, 0)) == 0 {
			t.Errorf("process series %q missing from history", series)
		}
	}

	// The health page gates on the overall severity: CRIT answers 503.
	rec := httptest.NewRecorder()
	eng.HealthPage().Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 503 {
		t.Errorf("health page status = %d, want 503 while CRIT", rec.Code)
	}
	var got repro.HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("health page body not JSON: %v", err)
	}
	if got.Overall != repro.SevCrit || got.Samples != 3 {
		t.Errorf("page status = %+v, want CRIT with 3 samples", got)
	}

	rec = httptest.NewRecorder()
	eng.HistoryPage().Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history?series=upa_arrivals_total", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "upa_arrivals_total") {
		t.Errorf("history page: status %d body %q", rec.Code, rec.Body.String())
	}

	// The burst's latencies leave the 4-tick window; HoldTicks 2 recovers.
	for i := 0; i < 6; i++ {
		h.Tick()
	}
	if h.Overall() != repro.SevOK {
		t.Errorf("overall after drain = %v, want OK", h.Overall())
	}
}

// TestWithHealthBackgroundSampler checks the Compile-starts / Close-stops
// lifecycle of the sampling goroutine.
func TestWithHealthBackgroundSampler(t *testing.T) {
	eng, err := repro.Compile(healthJoinQuery(), repro.UPA, repro.WithHealth(repro.HealthConfig{
		Interval: time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	h := eng.Health()
	deadline := time.Now().Add(2 * time.Second)
	for h.History().Samples() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.History().Samples() == 0 {
		t.Fatal("background sampler took no ticks")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Close stops the sampler; the monitor stays readable.
	n := h.History().Samples()
	time.Sleep(10 * time.Millisecond)
	if got := h.History().Samples(); got != n {
		t.Errorf("sampler still ticking after Close: %d -> %d", n, got)
	}
	if h.Overall() != repro.SevOK {
		t.Errorf("idle engine health = %v, want OK", h.Overall())
	}
}

// TestEngineWithoutHealth pins the disabled-path contract: nil monitor,
// 503 pages.
func TestEngineWithoutHealth(t *testing.T) {
	eng, err := repro.Compile(healthJoinQuery(), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Health() != nil {
		t.Error("Health() non-nil without WithHealth")
	}
	for _, page := range []repro.MetricsPage{eng.HealthPage(), eng.HistoryPage()} {
		rec := httptest.NewRecorder()
		page.Handler.ServeHTTP(rec, httptest.NewRequest("GET", page.Path, nil))
		if rec.Code != 503 {
			t.Errorf("%s status = %d without health, want 503", page.Path, rec.Code)
		}
	}
}
