package exec

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

func TestEngineMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	eng := buildEngine(t, simpleSelect(10), plan.NT, Config{Metrics: reg})
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	eng.Push(0, 2, tuple.Int(2), tuple.String_("a"), tuple.Int(1))
	eng.Push(0, 30, tuple.Int(3), tuple.String_("a"), tuple.Int(1)) // expires both
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	snap := reg.Snapshot()
	if snap.Counters[MetricArrivals] != st.Arrivals || st.Arrivals != 3 {
		t.Errorf("arrivals: registry %d, stats %d", snap.Counters[MetricArrivals], st.Arrivals)
	}
	if snap.Counters[MetricEmitted] != st.Emitted || st.Emitted != 3 {
		t.Errorf("emitted: registry %d, stats %d", snap.Counters[MetricEmitted], st.Emitted)
	}
	if snap.Counters[MetricRetracted] != st.Retracted || st.Retracted != 2 {
		t.Errorf("retracted: registry %d, stats %d", snap.Counters[MetricRetracted], st.Retracted)
	}
	if snap.Counters[MetricWindowNegatives] != 2 {
		t.Errorf("window negatives: %d", snap.Counters[MetricWindowNegatives])
	}
	if snap.Gauges[MetricClock] != 30 {
		t.Errorf("clock gauge: %d", snap.Gauges[MetricClock])
	}
	if snap.Gauges[MetricStateTuplesPeak] < 1 {
		t.Errorf("peak state gauge: %d", snap.Gauges[MetricStateTuplesPeak])
	}
	// Wall-clock Push timing is on because a registry was supplied; the
	// latency series is a log-bucketed histogram with summary exposition.
	if h := snap.LogHistograms[MetricPushNanos]; h.Count != 3 || h.Max <= 0 || h.P99 > h.Max {
		t.Errorf("push histogram: %+v", h)
	}
	// The same registry renders as Prometheus text.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"upa_arrivals_total 3", "# TYPE upa_push_nanos summary", "upa_push_nanos_count 3"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus text missing %q:\n%s", want, b.String())
		}
	}
}

func TestEngineMetricsAccessor(t *testing.T) {
	eng := buildEngine(t, simpleSelect(10), plan.UPA, Config{})
	if eng.Metrics() == nil {
		t.Fatal("engine without Config.Metrics must still expose its private registry")
	}
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	if got := eng.Metrics().Snapshot().Counters[MetricArrivals]; got != 1 {
		t.Errorf("private registry arrivals = %d", got)
	}
	reg := obs.NewRegistry()
	eng2 := buildEngine(t, simpleSelect(10), plan.UPA, Config{Metrics: reg})
	if eng2.Metrics() != reg {
		t.Error("engine must expose the supplied registry")
	}
}

func TestMaxStateTuplesShortRun(t *testing.T) {
	// Regression: state used to be sampled only every 64 arrivals, so runs
	// shorter than that reported a peak of 0.
	eng := buildEngine(t, simpleSelect(100), plan.UPA, Config{})
	for i := int64(1); i <= 3; i++ {
		if err := eng.Push(0, i, tuple.Int(i), tuple.String_("a"), tuple.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.MaxStateTuples < 1 {
		t.Fatalf("short run reports peak state %d, want >= 1", st.MaxStateTuples)
	}
	// Sync must also refresh the peak.
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.MaxStateTuples < 3 {
		t.Errorf("post-Sync peak = %d, want >= 3 (view holds 3 rows)", st.MaxStateTuples)
	}
}

// TestSeriesInventory holds the registered series to seriesConsumers: a
// 2-shard executor and a two-query registry, monitored by the health
// subsystem the way WithHealth wires it, share one metrics registry and go
// through every entry point that instruments something — push, advance,
// checkpoint, restore, sync, a health tick. The series names registered must
// be exactly the inventory's.
func TestSeriesInventory(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Metrics: reg, LazyInterval: 7, EagerInterval: 1}
	q := ckptQueries()[0]
	sh := openQuery(t, q, plan.UPA, plan.Options{}, cfg, 2)
	defer sh.Close()
	multi := NewMulti(cfg)
	for _, name := range []string{"a", "b"} {
		if _, err := multi.RegisterQuery(QuerySpec{Name: name, Phys: buildPhys(t, q.build(), plan.UPA, plan.Options{})}); err != nil {
			t.Fatal(err)
		}
	}
	hist := obs.NewHistory(reg, obs.HistoryConfig{Capacity: 8})
	hist.BeforeSample(obs.RegisterProcessMetrics(reg))
	h := obs.NewHealth(hist, multi.HealthRules(HealthSLO{DeltaP99: 1})...)
	h.Tick()

	trace := ckptTrace(q.streams)
	for _, ex := range []*Engine{sh, multi} {
		if err := ex.PushBatch(trace); err != nil {
			t.Fatal(err)
		}
		if err := ex.Advance(trace[len(trace)-1].TS + 50); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt, regCkpt bytes.Buffer
	if err := sh.Queries()[0].Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := multi.Checkpoint(&regCkpt); err != nil {
		t.Fatal(err)
	}
	fresh := openQuery(t, q, plan.UPA, plan.Options{}, cfg, 2)
	defer fresh.Close()
	if err := fresh.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*Engine{sh, multi, fresh} {
		if err := ex.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	h.Tick()

	snap := reg.Snapshot()
	got := map[string]bool{}
	for _, keys := range []map[string]int64{snap.Counters, snap.Gauges} {
		for k := range keys {
			got[seriesName(k)] = true
		}
	}
	for k := range snap.LogHistograms {
		got[seriesName(k)] = true
	}
	var unlisted, stale []string
	for name := range got {
		if _, ok := seriesConsumers[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	for name := range seriesConsumers {
		if !got[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("series registered without a named consumer in seriesConsumers: %v", unlisted)
	}
	if len(stale) > 0 {
		t.Errorf("seriesConsumers lists series nothing registered: %v", stale)
	}
}

// seriesName strips the rendered label set from a snapshot key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
