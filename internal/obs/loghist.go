package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// nanotimeBase anchors Nanotime: readings are durations since process
// start, so they fit comfortably in an int64 and difference cleanly.
var nanotimeBase = time.Now()

// Nanotime returns a monotonic reading in nanoseconds since process start.
// time.Since uses the runtime's monotonic clock, so readings never jump
// backwards across wall-clock adjustments — the property delta-latency
// origins need.
func Nanotime() int64 { return int64(time.Since(nanotimeBase)) }

// logBuckets is the number of power-of-two buckets in a LogHistogram:
// bucket i counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). 64 buckets cover every non-negative int64.
const logBuckets = 65

// LogHistogram is a lock-free log-bucketed histogram: values land in
// power-of-two buckets chosen by bit length, so Observe is one bits.Len64
// plus three atomic adds and one CAS loop — cheap enough for per-delta
// latency recording on the hot path. Relative quantile error is bounded by
// the bucket ratio (a factor of 2; reported values interpolate within the
// bucket). Safe for concurrent recorders and snapshot readers; methods on
// a nil *LogHistogram are no-ops.
type LogHistogram struct {
	counts [logBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
	max    atomic.Int64
}

// NewLogHistogram builds a standalone log-bucketed histogram.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// Observe records one value (negative values clamp to zero). Safe on nil.
func (h *LogHistogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value v — the batch path's
// way to charge one latency reading to every delta it covered without n
// separate atomic rounds. n <= 0 is ignored. Safe on nil.
func (h *LogHistogram) ObserveN(v int64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))].Add(n)
	h.sum.Add(v * n)
	h.n.Add(n)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations. Safe on nil.
func (h *LogHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values. Safe on nil.
func (h *LogHistogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value. Safe on nil.
func (h *LogHistogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// LogHistogramSnapshot is a point-in-time copy of a LogHistogram with
// pre-computed quantiles. Quantiles are upper-bound estimates accurate to
// the bucket (linear interpolation inside the winning power-of-two bucket).
type LogHistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	// Buckets maps bit length -> observation count, omitting empty buckets.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state and derives p50/p95/p99.
// Concurrent recorders may land between bucket reads; the snapshot is a
// consistent-enough mid-run approximation, like /metrics. Safe on nil.
func (h *LogHistogram) Snapshot() LogHistogramSnapshot {
	if h == nil {
		return LogHistogramSnapshot{}
	}
	var counts [logBuckets]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := LogHistogramSnapshot{
		Count: total,
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if total == 0 {
		return s
	}
	s.Buckets = make(map[int]int64)
	for i, c := range counts {
		if c > 0 {
			s.Buckets[i] = c
		}
	}
	s.P50 = quantileFromBuckets(counts[:], total, 0.50)
	s.P95 = quantileFromBuckets(counts[:], total, 0.95)
	s.P99 = quantileFromBuckets(counts[:], total, 0.99)
	if s.P50 > s.Max {
		s.P50 = s.Max
	}
	if s.P95 > s.Max {
		s.P95 = s.Max
	}
	if s.P99 > s.Max {
		s.P99 = s.Max
	}
	return s
}

// Quantile estimates an arbitrary q-quantile (0 < q <= 1) from the
// snapshot's buckets, clamped to the observed max — the general form of
// the pre-computed P50/P95/P99, used by health rules that read a merged
// window.
func (s LogHistogramSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	var counts [logBuckets]int64
	total := int64(0)
	for i, c := range s.Buckets {
		if i >= 0 && i < logBuckets {
			counts[i] += c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	v := quantileFromBuckets(counts[:], total, q)
	if s.Max > 0 && v > s.Max {
		v = s.Max
	}
	return v
}

// Merge combines two snapshots bucket-wise and recomputes the quantiles —
// how sharded execution folds per-shard latency distributions into one
// (quantiles themselves cannot be averaged; bucket counts can).
func (s LogHistogramSnapshot) Merge(o LogHistogramSnapshot) LogHistogramSnapshot {
	var counts [logBuckets]int64
	for i, c := range s.Buckets {
		if i >= 0 && i < logBuckets {
			counts[i] += c
		}
	}
	for i, c := range o.Buckets {
		if i >= 0 && i < logBuckets {
			counts[i] += c
		}
	}
	out := LogHistogramSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Max:   s.Max,
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return out
	}
	out.Buckets = make(map[int]int64)
	for i, c := range counts {
		if c > 0 {
			out.Buckets[i] = c
		}
	}
	out.P50 = quantileFromBuckets(counts[:], total, 0.50)
	out.P95 = quantileFromBuckets(counts[:], total, 0.95)
	out.P99 = quantileFromBuckets(counts[:], total, 0.99)
	for _, p := range []*int64{&out.P50, &out.P95, &out.P99} {
		if *p > out.Max {
			*p = out.Max
		}
	}
	return out
}

// quantileFromBuckets estimates the q-quantile by walking the cumulative
// bucket counts and interpolating linearly within the winning bucket
// [2^(i-1), 2^i).
func quantileFromBuckets(counts []int64, total int64, q float64) int64 {
	rank := int64(float64(total) * q)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			// Position of the target rank within this bucket, in (0, 1].
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	// Unreachable when total matches the counts; fall back to the top bound.
	lo, hi := bucketBounds(len(counts) - 1)
	_ = lo
	return hi
}

// bucketBounds returns the value range [lo, hi) covered by bucket i
// (bit length i): bucket 0 holds only zero, bucket i>=1 holds
// [2^(i-1), 2^i).
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(1)<<62 + (int64(1)<<62 - 1) // clamp to MaxInt64
	}
	return lo, int64(1) << i
}
