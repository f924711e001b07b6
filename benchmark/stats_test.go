package main

import (
	"math"
	"testing"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1000)
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}} {
		if got, _ := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if v, ok := percentile(nil, 99); v != 0 || ok {
		t.Errorf("empty sample: got %d, %v", v, ok)
	}
}

// The rule the suite reports under: a percentile is supported only when at
// least ten samples lie beyond it.
func TestPercentileTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},    // exactly 10 beyond
		{999, 99, false},    // 9 beyond
		{1536, 99, true},    // the PushBatch(256) workloads: 15 beyond
		{1152, 99, true},    // mix16-registry: 11 beyond
		{768, 99, false},    // why mix16-registry feeds batches of 128
		{1536, 99.9, false}, // p99.9 is printed only on the per-tuple workload
		{196608, 99.9, true},
	} {
		if _, ok := percentile(seq(c.n), c.p); ok != c.want {
			t.Errorf("n=%d p%v: supported=%v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

func TestSortedCopyLeavesInput(t *testing.T) {
	in := []int64{3, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[2] != 3 || in[0] != 3 {
		t.Errorf("sortedCopy: in %v out %v", in, out)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the acceptance check computes over ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.7, 3.05, 2.95}, 2.9, 3.1},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
