// Benchmarks pinning the facade's single-query ingest cost through both
// entry points: the legacy Compile engine and a one-query Registry. Compile
// is itself a thin wrapper over a one-query registry, so the two should
// measure alike — the multi-query redesign must not tax single-query
// workloads.
package repro_test

import (
	"testing"

	"repro"
)

func benchIngestFacade(b *testing.B, viaRegistry bool) {
	b.Helper()
	q := paperQueries(1000)["q1-join"]()
	var push func(stream int, ts int64, vals ...repro.Value) error
	if viaRegistry {
		reg, err := repro.NewRegistry()
		if err != nil {
			b.Fatal(err)
		}
		defer reg.Close()
		if _, err := reg.Register(q, repro.UPA); err != nil {
			b.Fatal(err)
		}
		push = reg.Push
	} else {
		eng, err := repro.Compile(q, repro.UPA)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		push = eng.Push
	}
	protos := []string{"ftp", "telnet", "smtp", "http"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 1)
		err := push(i%2, ts,
			repro.Int(int64(i*7%997)), repro.Int(int64(i%7)), repro.Str(protos[i%4]))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// BenchmarkIngestQ1UPACompile ingests Query 1 through the legacy facade.
func BenchmarkIngestQ1UPACompile(b *testing.B) { benchIngestFacade(b, false) }

// BenchmarkIngestQ1UPARegistry ingests the identical query and arrivals
// through a one-query registry.
func BenchmarkIngestQ1UPARegistry(b *testing.B) { benchIngestFacade(b, true) }
