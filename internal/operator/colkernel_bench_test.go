package operator

import (
	"testing"

	"repro/internal/tuple"
)

// Kernel-grain benchmarks for the columnar path. The engine-level benchmarks
// (internal/exec/colstateful_bench_test.go) measure deployment shapes where
// both paths share the producer, the event-rule state machine, and expiration
// churn, so their ratios sit near 1.0 by construction. These benchmarks
// isolate what the columnar kernels actually replace — predicate evaluation
// and survivor gather (BenchmarkMaskEval), and the per-arrival group-by body:
// key derivation from vectors vs. row Key construction, emission staging into
// a reused group slice vs. a per-arrival allocation (BenchmarkGroupByKernel).
// Distinct's hot path is the same key-derivation + map-probe shape as
// group-by and is covered by the equivalence tests.

// kernelBenchLen is the rows per run in the stateful kernel benchmarks — the
// same operating point as the engine-level benchmarks' per-run splits.
const kernelBenchLen = 256

// kernelBenchRows builds one run over colTestSchema: ids rotating through a
// 20k domain, eight protocol strings, quarter-step lens. With negs, the run is
// the row-for-row retraction of the positive run.
func kernelBenchRows(n int, negs bool) []tuple.Tuple {
	protos := []string{"ftp", "http", "http", "telnet", "smtp", "dns", "ssh", "quic"}
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			TS:  100,
			Exp: tuple.NeverExpires,
			Neg: negs,
			Vals: []tuple.Value{
				tuple.Int(int64(i*79) % 20000),
				tuple.String_(protos[i%len(protos)]),
				tuple.Float(float64(i%40) / 4),
			},
		}
	}
	return rows
}

func kernelBenchBatch(b *testing.B, rows []tuple.Tuple, intern *tuple.Interner) *tuple.ColBatch {
	b.Helper()
	cb := tuple.NewColBatch(colTestSchema)
	if !cb.FromRows(rows, intern) {
		b.Fatal("conversion failed")
	}
	return cb
}

// BenchmarkMaskEval measures Select.ProcessCols — packed uint64 bitset
// evaluation (branchless, word-at-a-time) and popcount-sized gather — over a
// 4096-row batch, so per-word costs are visible over loop overhead.
func BenchmarkMaskEval(b *testing.B) {
	intern := tuple.NewInterner()
	in := kernelBenchBatch(b, kernelBenchRows(4096, false), intern)
	preds := []struct {
		name string
		pred Predicate
	}{
		// 1/8-selective integer range — the paper's σ shape on a numeric column.
		{"int-lt", ColConst{Col: 0, Op: LT, Val: tuple.Int(2500)}},
		// Interned-string equality AND'd with a range — a composite mask whose
		// sub-masks combine word-at-a-time.
		{"and-str-int", And{
			ColConst{Col: 1, Op: EQ, Val: tuple.String_("http")},
			ColConst{Col: 0, Op: LT, Val: tuple.Int(10000)},
		}},
	}
	for _, tc := range preds {
		b.Run(tc.name+"/bits", func(b *testing.B) {
			s := NewSelect(colTestSchema, tc.pred)
			out := tuple.NewColBatch(colTestSchema)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := s.ProcessCols(0, in, 100, out, intern); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*in.Len())/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}

// BenchmarkGroupByKernel measures the per-arrival group-by body alone — the
// Section 3.1 running-aggregate case (no input store), so neither path pays
// state-buffer inserts or expiration and the comparison is purely key
// derivation, group probe, aggregate update, and emission staging. The row
// path builds a tuple.Key and allocates every replacement row (its emissions
// travel downstream by reference); the kernel derives keys from the vectors
// and stages emissions through the group's reused scratch slice.
func BenchmarkGroupByKernel(b *testing.B) {
	newOp := func(b *testing.B) *GroupBy {
		b.Helper()
		g, err := NewGroupBy(GroupByConfig{
			Input:        colTestSchema,
			GroupCols:    []int{1},
			Aggs:         []AggSpec{{Kind: Count}, {Kind: Sum, Col: 2}},
			NoInputStore: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	rows := kernelBenchRows(kernelBenchLen, false)
	b.Run("row", func(b *testing.B) {
		op := newOp(b)
		var em Emit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			em.Reset()
			if err := op.ProcessBatch(0, rows, 100, &em); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(rows))/b.Elapsed().Seconds(), "tuples/sec")
	})
	b.Run("col", func(b *testing.B) {
		op := newOp(b)
		intern := tuple.NewInterner()
		in := kernelBenchBatch(b, rows, intern)
		out := tuple.NewColBatch(op.Schema())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := op.ProcessCols(0, in, 100, out, intern); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*in.Len())/b.Elapsed().Seconds(), "tuples/sec")
	})
}
