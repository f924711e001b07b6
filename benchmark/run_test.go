package main

import (
	"math"
	"runtime"
	"testing"
)

// The whole run shape on a small copy of the suite: the oracle check passes,
// timed passes repeat, the columnar workloads stay columnar, and every
// end-to-end metric comes out non-zero.
func TestEndToEndSmallSuite(t *testing.T) {
	for _, w := range smallSuite() {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runEndToEnd(w, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct %v, failed %d of %d", rep.Correct, rep.Failed, rep.Attempted)
			}
			if rep.Passes != minPasses {
				t.Errorf("%d timed passes with -seconds 0, want %d", rep.Passes, minPasses)
			}
			for _, d := range endToEnd {
				v, ok := rep.Metrics[d.name]
				if !ok || v.Unit != d.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v)", d.name, v, ok)
				}
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			calls := w.records / w.batch
			if rep.Latency.CallsPerPass != calls {
				t.Errorf("%d ingest calls per pass, want %d", rep.Latency.CallsPerPass, calls)
			}
		})
	}
}

// A pass whose output differs from the first pass's fails all of its ops.
func TestRecordFailsAPassThatDiffers(t *testing.T) {
	w := smallWorkload(t, "q6-groupby-col")
	sys, err := build(w, legCfg{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.ing.Close()
	l := &leg{name: "t", sys: sys}
	good := passResult{ops: 10, emitted: 5, retracted: 2, results: 3}
	if err := l.record(good); err != nil {
		t.Fatal(err)
	}
	if err := l.record(good); err != nil || l.failed != 0 {
		t.Fatalf("an identical pass failed: %v", err)
	}
	bad := good
	bad.emitted++
	if err := l.record(bad); err == nil || l.failed != 10 {
		t.Errorf("a differing pass passed: err %v, failed %d", err, l.failed)
	}
	viol := good
	viol.violations = 1
	if err := l.record(viol); err == nil || l.failed != 20 {
		t.Errorf("a pattern violation passed: err %v, failed %d", err, l.failed)
	}
}

// Duplicate elimination makes the transient output history-dependent, so
// only the answer is required to repeat there (workload.repeats).
func TestRepeatsOnlyWithoutDistinct(t *testing.T) {
	want := map[string]bool{"q1-csv-col": true, "q5-tuple-upa": true, "q6-groupby-col": true,
		"mix16-registry": false, "q4-shard2": false}
	for _, w := range smallSuite() {
		if got := w.repeats(); got != want[w.name] {
			t.Errorf("%s: repeats = %v, want %v", w.name, got, want[w.name])
		}
	}
}

// The traced run on the small suite: every per-layer metric is printed for
// every workload, layers a workload never enters read zero, and the layer
// table's self times add up to the pass.
func TestTracedSmallSuite(t *testing.T) {
	for _, w := range smallSuite() {
		t.Run(w.name, func(t *testing.T) {
			rep, spans, err := runTraced(w, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("correct %v, failed %d", rep.Correct, rep.Failed)
			}
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			m := rep.Metrics
			for _, d := range perLayer() {
				if v, ok := m[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v)", d.name, v, ok)
				}
			}
			if len(m) != len(perLayer()) {
				t.Errorf("%d metrics, want %d", len(m), len(perLayer()))
			}
			nonZero := func(name string, want bool) {
				t.Helper()
				if got := m[name].Value != 0; got != want {
					t.Errorf("%s = %v, want non-zero: %v", name, m[name].Value, want)
				}
			}
			nonZero("trace.parse_ns_per_rec", w.grain == grainCSV)
			nonZero("tuple.colbuild_ns_per_row", w.columnar)
			nonZero("checkpoint.write_ms", w.registry)
			nonZero("checkpoint.bytes", w.registry)
			nonZero("checkpoint.restore_ms", w.registry)
			nonZero("obs.overhead_pct", w.registry)
			nonZero("exec.shard_speedup", w.shards > 1 && runtime.NumCPU() > 1)
			nonZero("exec.shard_blocked_share", w.shards > 1)
			nonZero("operator.in", true)
			nonZero("statebuf.hash.insert_ns", true)
			nonZero("window.admit_ns_per_tuple", true)

			var sum, pass float64
			for _, l := range rep.Layers {
				switch {
				case l.Layer == "pass":
					pass = l.SelfMs
				case l.Layer[0] != ' ': // indented rows split the row above them
					sum += l.SelfMs
				}
			}
			if math.Abs(sum-pass) > 1e-6*pass {
				t.Errorf("layer self times sum to %.6f ms, the pass is %.6f ms", sum, pass)
			}
		})
	}
}
