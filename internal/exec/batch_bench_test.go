package exec

// Benchmarks pinning the batch execution fast paths: the same bursty arrival
// stream pushed tuple-at-a-time (Push), run-coalesced on the row batch path
// (PushBatch with NoColumnar), and run-coalesced on the columnar path
// (PushBatch, the default) into the paper's Query 1 (join of ftp-selections)
// compiled with the UPA strategy over a 5000-tick window. They isolate the
// exec layer; end-to-end performance is what benchmark/run.sh measures.

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// benchQ1Engine compiles Query 1 (UPA, time window of size ticks) fresh.
// The engine runs in its observable configuration (metrics registry
// attached, as `upaquery -metrics` deploys it): per-call instrumentation —
// wall-clock sampling around every Push and every operator invocation — is
// one of the overheads the batch path amortizes per run instead of paying
// per tuple, so the instrumented engine is where the tuple/batch contrast is
// representative. The *Bare variants run the same loops uninstrumented.
func benchQ1Engine(b testing.TB, winSize int64, metrics, columnar bool) *Engine {
	b.Helper()
	ftpSel := func(id int) *plan.Node {
		src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: winSize}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	root := plan.NewJoin(ftpSel(0), ftpSel(1), []int{0}, []int{0})
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		b.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{LazyInterval: 50, EagerInterval: 1, NoColumnar: !columnar}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	eng, err := New(phys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if eng.colOK != columnar {
		b.Fatalf("colOK = %v, want %v", eng.colOK, columnar)
	}
	return eng
}

// benchBatch builds the reusable 64-arrival bursty template: 4 ticks × 2
// streams × 8-tuple bursts, the run shape PushBatch coalesces. Timestamps and
// join keys are rewritten in place each iteration (fresh keys keep matches
// rare over the 5000-tick window, so the benchmark measures the ingest path,
// not join-result fan-out).
func benchBatch() []Arrival {
	r := rand.New(rand.NewSource(23))
	// ftp is a minority protocol in a link trace; the Query 1 selections drop
	// most arrivals, which is exactly when per-tuple dispatch overhead — the
	// thing batching amortizes — shows up.
	protos := []string{"ftp", "http", "http", "telnet", "smtp", "dns", "ssh", "quic"}
	batch := make([]Arrival, 0, 64)
	for tick := 0; tick < 4; tick++ {
		for s := 0; s < 2; s++ {
			for n := 0; n < 8; n++ {
				vals := []tuple.Value{
					tuple.Int(0),
					tuple.String_(protos[r.Intn(len(protos))]),
					tuple.Int(int64(r.Intn(100))),
				}
				batch = append(batch, Arrival{Stream: s, TS: int64(tick), Vals: vals})
			}
		}
	}
	return batch
}

// restamp advances the template to the next 4-tick span and rotates the join
// keys through a 20k-value domain — wide enough that matches stay rare and
// hash buckets stay shallow, narrow enough that the key map reaches a steady
// size instead of churning an entry per tuple. Arrivals are mutated in place
// so the timed loops allocate nothing of their own.
func restamp(batch []Arrival, base int64) {
	for i := range batch {
		batch[i].TS = base + int64(i/16)
		batch[i].Vals[0] = tuple.Int((base*16 + int64(i)) % 20000)
	}
}

// BenchmarkIngestTupleQ1UPA is the tuple-at-a-time baseline.
func BenchmarkIngestTupleQ1UPA(b *testing.B) {
	benchIngestTuple(b, true)
}

// BenchmarkIngestTupleQ1UPABare is the same baseline on an uninstrumented
// engine (no metrics registry).
func BenchmarkIngestTupleQ1UPABare(b *testing.B) {
	benchIngestTuple(b, false)
}

func benchIngestTuple(b *testing.B, metrics bool) {
	eng := benchQ1Engine(b, 5000, metrics, false)
	batch := benchBatch()
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restamp(batch, base)
		for _, a := range batch {
			if err := eng.Push(a.Stream, a.TS, a.Vals...); err != nil {
				b.Fatal(err)
			}
		}
		base += 4
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}

// BenchmarkIngestBatchQ1UPA is the run-coalescing row batch path over the
// identical arrival stream, pinned to NoColumnar so the PR 5 baseline stays
// comparable across PRs.
func BenchmarkIngestBatchQ1UPA(b *testing.B) {
	benchIngestBatch(b, true, false)
}

// BenchmarkIngestBatchQ1UPABare is the row batch path on an uninstrumented
// engine (no metrics registry).
func BenchmarkIngestBatchQ1UPABare(b *testing.B) {
	benchIngestBatch(b, false, false)
}

// BenchmarkIngestColQ1UPA is the columnar path (the default engine
// configuration) over the identical arrival stream.
func BenchmarkIngestColQ1UPA(b *testing.B) {
	benchIngestBatch(b, true, true)
}

// BenchmarkIngestColQ1UPABare is the columnar path on an uninstrumented
// engine (no metrics registry).
func BenchmarkIngestColQ1UPABare(b *testing.B) {
	benchIngestBatch(b, false, true)
}

func benchIngestBatch(b *testing.B, metrics, columnar bool) {
	eng := benchQ1Engine(b, 5000, metrics, columnar)
	batch := benchBatch()
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restamp(batch, base)
		if err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		base += 4
	}
	b.StopTimer()
	if eng.colOK != columnar {
		b.Fatalf("colOK = %v after run, want %v", eng.colOK, columnar)
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}

// The suite's shape: the generator's links take turns, so every run is one
// arrival (one per link per timestamp), each PushBatch carries 256 arrivals,
// and the query runs under UPA over a 10 000-tick window with the suite's
// lazy interval of a twentieth of it. Query 1 reads two links of uniform
// source addresses, ftp being trace.ProtocolShare("ftp") of them; the Query
// 6 group-by reads one link. The bursty benchmarks above lay out 8-row runs,
// a shape no suite workload has.
const (
	altWindow = 10000
	altCall   = 256
)

// benchTraceEngine compiles root under UPA with the suite's cadence.
func benchTraceEngine(b testing.TB, root *plan.Node, columnar bool) *Engine {
	b.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		b.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(phys, Config{LazyInterval: altWindow / 20, EagerInterval: 1, NoColumnar: !columnar})
	if err != nil {
		b.Fatal(err)
	}
	if eng.colOK != columnar {
		b.Fatalf("colOK = %v, want %v", eng.colOK, columnar)
	}
	return eng
}

func traceSource(link int) *plan.Node {
	return plan.NewSource(link, window.Spec{Type: window.TimeBased, Size: altWindow}, trace.Schema())
}

// benchQ1TraceEngine compiles Query 1 over the trace schema as the suite
// builds it: σ(protocol = 'ftp') on each link, joined on src.
func benchQ1TraceEngine(b testing.TB, columnar bool) *Engine {
	ftpSel := func(link int) *plan.Node {
		return plan.NewSelect(traceSource(link), operator.ColConst{Col: trace.ColProtocol, Op: operator.EQ,
			Val: tuple.String_("ftp"), Sel: trace.ProtocolShare("ftp")})
	}
	srcCol := []int{trace.ColSrc}
	return benchTraceEngine(b, plan.NewJoin(ftpSel(0), ftpSel(1), srcCol, srcCol), columnar)
}

// benchGroupByTraceEngine compiles the Query 6 group-by as the suite builds
// it: count and summed payload per protocol on one link.
func benchGroupByTraceEngine(b testing.TB, columnar bool) *Engine {
	root := plan.NewGroupBy(traceSource(0), []int{trace.ColProtocol},
		operator.AggSpec{Kind: operator.Count}, operator.AggSpec{Kind: operator.Sum, Col: trace.ColPayload})
	return benchTraceEngine(b, root, columnar)
}

// alternatingPool is 64 calls' worth of generated records as arrivals.
func alternatingPool(links int, srcSkew float64) []Arrival {
	recs := trace.Generate(trace.Config{Links: links, Tuples: 64 * altCall, SrcSkew: srcSkew, Seed: 7})
	pool := make([]Arrival, len(recs))
	for i, r := range recs {
		pool[i] = Arrival{Stream: r.Link, TS: r.TS, Vals: r.Vals}
	}
	return pool
}

// BenchmarkIngestColQ1Alternating is the columnar chain on the suite's shape.
func BenchmarkIngestColQ1Alternating(b *testing.B) {
	benchIngestAlternating(b, benchQ1TraceEngine(b, true), alternatingPool(2, 0.5))
}

// BenchmarkIngestRowQ1Alternating is the row chain (NoColumnar) on the same
// arrivals.
func BenchmarkIngestRowQ1Alternating(b *testing.B) {
	benchIngestAlternating(b, benchQ1TraceEngine(b, false), alternatingPool(2, 0.5))
}

// BenchmarkIngestColGroupByAlternating is the columnar group-by on the
// suite's shape.
func BenchmarkIngestColGroupByAlternating(b *testing.B) {
	benchIngestAlternating(b, benchGroupByTraceEngine(b, true), alternatingPool(1, 1.1))
}

// BenchmarkIngestRowGroupByAlternating is the row chain's group-by on the
// same arrivals.
func BenchmarkIngestRowGroupByAlternating(b *testing.B) {
	benchIngestAlternating(b, benchGroupByTraceEngine(b, false), alternatingPool(1, 1.1))
}

// benchIngestAlternating replays the pool over and over, each round shifted
// past the last one's timestamps; the values are shared, never written.
func benchIngestAlternating(b *testing.B, eng *Engine, pool []Arrival) {
	columnar := eng.colOK
	span := pool[len(pool)-1].TS + 1
	batch := make([]Arrival, altCall)
	call := 0
	push := func() {
		off := call * altCall % len(pool)
		shift := int64(call*altCall/len(pool)) * span
		for k := range batch {
			batch[k] = pool[off+k]
			batch[k].TS += shift
		}
		if err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		call++
	}
	// Fill the windows twice over first, so the timed calls expire as many
	// tuples as they admit.
	perTick := len(pool) / int(span)
	for range 2 * altWindow * perTick / altCall {
		push()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.StopTimer()
	if eng.colOK != columnar {
		b.Fatalf("colOK = %v after run, want %v", eng.colOK, columnar)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*altCall), "ns/arrival")
}
