package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	tps := metricDef{name: "tuples_per_s", higher: true, bound: 0.10}
	p99 := metricDef{name: "setup_s", bound: 0.10}
	steady := []float64{99, 100, 100, 100, 101}
	wide := []float64{60, 80, 100, 120, 140}
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur value
		want      verdict
	}{
		{"higher-better, 5% lower", tps, value{Value: 100, Samples: steady}, value{Value: 95, Samples: steady}, verdictOK},
		{"higher-better, 15% lower", tps, value{Value: 100, Samples: steady}, value{Value: 85, Samples: steady}, verdictWorse},
		{"higher-better, 50% higher", tps, value{Value: 100, Samples: steady}, value{Value: 150, Samples: steady}, verdictOK},
		{"lower-better, 15% higher", p99, value{Value: 100, Samples: steady}, value{Value: 115, Samples: steady}, verdictWorse},
		{"lower-better, 15% lower", p99, value{Value: 100, Samples: steady}, value{Value: 85, Samples: steady}, verdictOK},
		{"a wide set resolves nothing", tps, value{Value: 100, Samples: wide}, value{Value: 85, Samples: steady}, verdictUnresolved},
		{"a wide new set neither", p99, value{Value: 100, Samples: steady}, value{Value: 100, Samples: wide}, verdictUnresolved},
		{"a single reading has no spread", p99, value{Value: 100}, value{Value: 105}, verdictOK},
	} {
		if got, _, _, _ := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, worseBy, _, _ := judge(tps, value{Value: 200}, value{Value: 150}); worseBy != 0.25 {
		t.Errorf("worseBy = %v, want 0.25 of the base", worseBy)
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(tps float64) report {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.name] = value{Value: 10, Unit: d.unit, Samples: []float64{10, 10, 10}}
		}
		m["tuples_per_s"] = value{Value: tps, Unit: "tuples/s", Samples: []float64{tps, tps, tps}}
		return report{Schema: 1, Workloads: []workloadReport{{Workload: "q1-csv-col",
			result: result{Correct: true, Attempted: 5, Metrics: m}}}}
	}
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for path, rep := range map[string]report{a: mk(1000), b: mk(990), c: mk(700)} {
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := runCompare(&out, a, b); code != 0 {
		t.Errorf("1%% slower: exit %d\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), " ok\n"); n != len(endToEnd) {
		t.Errorf("%d ok rows, want one per end-to-end metric (%d)\n%s", n, len(endToEnd), out.String())
	}
	out.Reset()
	if code := runCompare(&out, a, c); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0.7000") {
		t.Errorf("the ratio new/base is not printed:\n%s", out.String())
	}
	if code := runCompare(&out, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}
