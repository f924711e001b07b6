package repro_test

import (
	"strings"
	"testing"

	"repro"
)

// TestPublicObservabilityHooks drives the exported WithMetrics option
// end-to-end on a windowed join.
func TestPublicObservabilityHooks(t *testing.T) {
	schema := linkSchema()
	left := repro.Stream(0, schema, repro.TimeWindow(10)).
		Where(repro.Col("proto").EqStr("ftp"))
	right := repro.Stream(1, schema, repro.TimeWindow(10)).
		Where(repro.Col("proto").EqStr("ftp"))
	q := left.JoinOn(right, "src")

	reg := repro.NewMetricsRegistry()
	eng, err := repro.Compile(q, repro.NT, repro.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Metrics() != reg {
		t.Fatal("engine must expose the supplied registry")
	}
	push := func(stream int, ts int64, src int64) {
		t.Helper()
		if err := eng.Push(stream, ts, repro.Int(src), repro.Str("ftp"), repro.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	push(0, 1, 7)
	push(1, 2, 7) // join result
	push(0, 30, 9)
	push(1, 31, 9) // first pair has expired and been retracted by now
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["upa_arrivals_total"] != 4 {
		t.Errorf("arrivals = %d", snap.Counters["upa_arrivals_total"])
	}
	if snap.Counters["upa_emitted_total"] < 2 || snap.Counters["upa_retracted_total"] < 1 {
		t.Errorf("emitted/retracted = %d/%d",
			snap.Counters["upa_emitted_total"], snap.Counters["upa_retracted_total"])
	}
	if snap.Counters["upa_window_negatives_total"] < 1 {
		t.Errorf("window negatives = %d", snap.Counters["upa_window_negatives_total"])
	}
	// The same registry renders for exposition.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "upa_arrivals_total 4") {
		t.Errorf("prometheus text:\n%s", b.String())
	}
}

// TestEachReadSyncsOnce: a syncing read of the engine or of a registered
// query records exactly one result refresh.
func TestEachReadSyncsOnce(t *testing.T) {
	schema := linkSchema()
	reg := repro.NewMetricsRegistry()
	eng, err := repro.Compile(repro.Stream(0, schema, repro.TimeWindow(10)), repro.UPA, repro.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Registry.Register(repro.Stream(0, schema, repro.TimeWindow(20)), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(5)); err != nil {
		t.Fatal(err)
	}
	refreshes := func() int64 { return reg.Snapshot().LogHistograms["upa_refresh_nanos"].Count }
	for name, read := range map[string]func() error{
		"Engine.Snapshot":    func() error { _, err := eng.Snapshot(); return err },
		"Engine.ResultCount": func() error { _, err := eng.ResultCount(); return err },
		"Query.Snapshot":     func() error { _, err := q.Snapshot(); return err },
		"Query.ResultCount":  func() error { _, err := q.ResultCount(); return err },
	} {
		before := refreshes()
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if got := refreshes() - before; got != 1 {
			t.Errorf("%s recorded %d refreshes, want 1", name, got)
		}
	}
}
