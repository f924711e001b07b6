package statebuf

// Ablation micro-benchmarks isolating the cost claims behind the buffer
// choices of Section 5.3.2: steady-state insert+expire churn (the WK
// maintenance loop) and key probing, per structure.

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

func churnBuffers(horizon int64) map[string]Buffer {
	return map[string]Buffer{
		"fifo":        NewFIFO(),
		"list":        NewList(),
		"partitioned": NewPartitioned(10, horizon, false),
		"keyed":       keyedCal(10, horizon, false),
		"hash":        NewHash([]int{0}),
		"indexedfifo": keyedFIFO(),
	}
}

// BenchmarkBufferChurn measures a sliding-window steady state: one insert
// plus one expiration round per time unit, with `live` tuples resident.
// This is where the DIRECT list's sequential scans diverge from the
// partitioned calendar.
func BenchmarkBufferChurn(b *testing.B) {
	for _, live := range []int64{1000, 10000} {
		for name := range churnBuffers(live) {
			b.Run(fmt.Sprintf("%s/live%d", name, live), func(b *testing.B) {
				// A buffer of its own per invocation: the clock below restarts
				// at zero, and a calendar does not expire behind its cursor.
				buf := churnBuffers(live)[name]
				// Pre-fill to steady state.
				for ts := int64(0); ts < live; ts++ {
					buf.Insert(mk(ts, ts+live, ts%97))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ts := live + int64(i)
					buf.Insert(mk(ts, ts+live, ts%97))
					buf.ExpireUpTo(ts)
				}
			})
		}
	}
}

// BenchmarkBufferExpireHeavy measures the expire-dominated steady state: a
// burst of inserts followed by one ExpireUpTo that drains the whole burst.
// This is the path the scratch-slice reuse targets — in steady state the
// returned slice comes from a recycled buffer, so the loop should settle at
// zero allocations per expired tuple for every structure.
func BenchmarkBufferExpireHeavy(b *testing.B) {
	const burst = 256
	for name := range churnBuffers(burst) {
		b.Run(name, func(b *testing.B) {
			buf := churnBuffers(burst)[name]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := int64(i) * burst
				for j := int64(0); j < burst; j++ {
					buf.Insert(mk(base+j, base+j+1, j%97))
				}
				got := buf.ExpireUpTo(base + burst)
				if len(got) != burst {
					b.Fatalf("expired %d tuples, want %d", len(got), burst)
				}
			}
		})
	}
}

// BenchmarkBufferProbe measures locating tuples by key among `live`
// residents — the join probe path (hash-indexed vs scan).
func BenchmarkBufferProbe(b *testing.B) {
	const live = 10000
	for name, buf := range churnBuffers(live) {
		for ts := int64(0); ts < live; ts++ {
			buf.Insert(mk(ts, ts+2*live, ts%97))
		}
		b.Run(name, func(b *testing.B) {
			key := mk(0, 0, 13).Key([]int{0})
			for i := 0; i < b.N; i++ {
				hits := 0
				if p, ok := buf.(ProbeAppender); ok {
					hits = len(p.ProbeAppend(key, 0, nil))
				} else {
					buf.Scan(func(t tuple.Tuple) bool {
						if t.Key([]int{0}) == key {
							hits++
						}
						return true
					})
				}
				if hits == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

// BenchmarkBufferRemove measures retraction by value — the negative-tuple
// path (hash removal vs list scan vs partition scan).
func BenchmarkBufferRemove(b *testing.B) {
	const live = 10000
	for name := range churnBuffers(live) {
		b.Run(name, func(b *testing.B) {
			buf := churnBuffers(live)[name]
			for ts := int64(0); ts < live; ts++ {
				buf.Insert(mk(ts, ts+2*live, ts%97))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := int64(i) % 97
				t := mk(0, int64(i%int(live))+2*live, v)
				buf.Remove(mk(int64(i), 0, v))
				buf.Insert(t) // keep the population stable
			}
		})
	}
}
