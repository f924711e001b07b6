package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics: "the highest percentile that has at least ten samples
// beyond it").
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond it.
// A percentile without that support is still returned, for printing, but
// must not be gated.
func percentile(sorted []int64, p float64) (v int64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 1-based; the slack absorbs 99.9/100*1000 = 999.0000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianBy is the median of f over xs.
func medianBy[T any](xs []T, f func(T) float64) float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	return median(ys)
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (exclusive), which is what the
// acceptance check applies to a set of runs. Fewer than two values have no
// spread: both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based, may fall outside [1, n]
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
