package exec

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// benchPush measures Engine.Push on the Query-1-shaped join under UPA.
// Compare BenchmarkPushObsDisabled against BenchmarkPushObsMetrics for the
// cost of the wall-clock instruments a metrics registry switches on.
func benchPush(b *testing.B, cfg Config) {
	b.Helper()
	root := joinOfSelects(1000)
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		b.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg.EagerInterval = 1
	cfg.LazyInterval = 50
	eng, err := New(phys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	vals := []tuple.Value{tuple.Int(0), tuple.String_("ftp"), tuple.Int(64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = tuple.Int(int64(i % 512))
		if err := eng.Push(i%2, int64(i+1), vals...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPushObsDisabled(b *testing.B) {
	benchPush(b, Config{})
}

func BenchmarkPushObsMetrics(b *testing.B) {
	benchPush(b, Config{Metrics: obs.NewRegistry()})
}
