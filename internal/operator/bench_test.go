package operator

// Ablation micro-benchmarks for the operator-level design choices DESIGN.md
// calls out: δ versus the literature duplicate-elimination implementation
// (Section 5.3.1), and join state structures under churn.

import (
	"fmt"
	"testing"

	"repro/internal/statebuf"
)

// BenchmarkDistinctImplementations drives a duplicated sliding-window stream
// through the two duplicate-elimination operators.
func BenchmarkDistinctImplementations(b *testing.B) {
	const window = 5000
	impls := map[string]func() Operator{
		"literature-list": func() Operator {
			return NewDistinct(DistinctConfig{
				Schema:     ipSchema1(),
				InputBuf:   statebuf.Config{Kind: statebuf.KindList},
				RepIdx:     statebuf.Config{Kind: statebuf.KindList},
				TimeExpiry: true,
			})
		},
		"literature-hash": func() Operator {
			return NewDistinct(DistinctConfig{
				Schema:     ipSchema1(),
				InputBuf:   statebuf.Config{Kind: statebuf.KindHash},
				RepIdx:     statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: window},
				TimeExpiry: true,
			})
		},
		"delta": func() Operator {
			return NewDistinctDelta(ipSchema1(), window, 0)
		},
	}
	for name, mk := range impls {
		b.Run(name, func(b *testing.B) {
			d := mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts := int64(i)
				if _, err := processTuple(d, 0, ip(ts, ts+window, ts%300), ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.StateSize()), "state-tuples")
		})
	}
}

// BenchmarkJoinStateStructures measures the symmetric window join under the
// buffer assignments of each strategy.
func BenchmarkJoinStateStructures(b *testing.B) {
	const window = 5000
	cfgs := map[string]statebuf.Config{
		"list(DIRECT)":     {Kind: statebuf.KindList},
		"hash(NT)":         {Kind: statebuf.KindHash},
		"indexedfifo(UPA)": {Kind: statebuf.KindIndexedFIFO},
		"partitioned":      {Kind: statebuf.KindPartitioned, Horizon: window},
	}
	for name, cfg := range cfgs {
		b.Run(name, func(b *testing.B) {
			j, err := NewJoin(JoinConfig{
				Left: ipSchema1(), Right: ipSchema1(),
				LeftCols: []int{0}, RightCols: []int{0},
				LeftBuf: cfg, RightBuf: cfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ts := int64(i)
				side := i % 2
				if _, err := processTuple(j, side, ip(ts, ts+window, ts%500), ts); err != nil {
					b.Fatal(err)
				}
				if i%16 == 0 {
					if _, err := j.Advance(ts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkNegateCalendars compares the partitioned and list expiration
// calendars inside the negation operator.
func BenchmarkNegateCalendars(b *testing.B) {
	const window = 5000
	for _, list := range []bool{false, true} {
		name := "partitioned"
		if list {
			name = "list"
		}
		b.Run(fmt.Sprintf("calendar-%s", name), func(b *testing.B) {
			n, err := NewNegate(NegateConfig{
				Left: ipSchema1(), Right: ipSchema1(),
				LeftCols: []int{0}, RightCols: []int{0},
				Horizon: window, ListCalendars: list,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ts := int64(i)
				if _, err := processTuple(n, i%2, ip(ts, ts+window, ts%200), ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
