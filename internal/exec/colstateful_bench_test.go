package exec

// Benchmarks pinning the stateful-tail columnar kernels: the same bursty
// arrival stream pushed through the row batch path (PushBatch with
// NoColumnar) and the columnar kernels (PushBatch, the default) into a
// Q3-style grouped aggregation and a Q5-style negation, both compiled with
// the UPA strategy over a 5000-tick window. They isolate the kernels at exec
// grain; the end-to-end verdict on the columnar tail is q6-groupby-col in
// benchmark/run.sh. Engines run instrumented (metrics registry attached), the
// deployment shape benchmark/ measures too.

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/race"
	"repro/internal/tuple"
	"repro/internal/window"
)

// benchSelCut is the srcIP cutoff of the benchmarks' selective predicate:
// restampKeys rotates srcIP through [0, 20000), so srcIP < 2500 passes one
// arrival in eight — the paper's experiments all run their stateful operators
// behind a selective predicate like this (σ protocol=ftp), which is exactly
// where the columnar split shows: the full run is mask-evaluated and gathered
// column-major, and only the survivors reach the row-grained state machine.
const benchSelCut = 2500

func benchSelect(node *plan.Node) *plan.Node {
	return plan.NewSelect(node, operator.ColConst{
		Col: 0, Op: operator.LT, Val: tuple.Int(benchSelCut), Sel: float64(benchSelCut) / 20000,
	})
}

// benchGroupByEngine compiles "count and total bytes per protocol over the
// monitored address range" — a Q3-style selection feeding a grouped
// aggregation over one windowed link.
func benchGroupByEngine(b testing.TB, winSize int64, columnar bool) *Engine {
	b.Helper()
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: winSize}, linkSchema())
	root := plan.NewGroupBy(benchSelect(src), []int{1},
		operator.AggSpec{Kind: operator.Count},
		operator.AggSpec{Kind: operator.Sum, Col: 2},
	)
	return benchStatefulEngine(b, root, columnar)
}

// benchNegateEngine compiles a Q5-style negation over filtered links —
// σ(L1) − σ(L2) on srcIP — with asymmetric windows.
func benchNegateEngine(b testing.TB, winSize int64, columnar bool) *Engine {
	b.Helper()
	a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: winSize}, linkSchema())
	c := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: winSize + 500}, linkSchema())
	return benchStatefulEngine(b, plan.NewNegate(benchSelect(a), benchSelect(c), []int{0}, []int{0}), columnar)
}

func benchStatefulEngine(b testing.TB, root *plan.Node, columnar bool) *Engine {
	b.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		b.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{LazyInterval: 50, EagerInterval: 1, NoColumnar: !columnar, Metrics: obs.NewRegistry()}
	eng, err := New(phys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if eng.colOK != columnar {
		b.Fatalf("colOK = %v, want %v", eng.colOK, columnar)
	}
	return eng
}

// benchBatchLen is the arrivals per PushBatch in the stateful benchmarks.
// The runs it splits into (64 per tick single-stream, 32 per tick per side
// for the negation) are the operating point of columnar execution — big
// enough that per-run layout and kernel costs amortize, the regime batching
// exists for.
const benchBatchLen = 256

// benchStatefulBatch builds the reusable bursty template over the given
// number of streams: 4 ticks, each a burst per stream. Eight protocols keep
// the group-by at eight live groups; srcIP rotation happens in freshenBatch.
func benchStatefulBatch(streams int) []Arrival {
	r := rand.New(rand.NewSource(29))
	protos := []string{"ftp", "http", "http", "telnet", "smtp", "dns", "ssh", "quic"}
	per := benchBatchLen / (4 * streams)
	batch := make([]Arrival, 0, benchBatchLen)
	for tick := 0; tick < 4; tick++ {
		for s := 0; s < streams; s++ {
			for n := 0; n < per; n++ {
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

// freshenBatch advances the template to the next 4-tick span, rotating the
// srcIP through a 20k-value domain, and gives every arrival a NEWLY allocated
// value slice. The engine takes ownership of pushed values — stored state
// aliases them for the lifetime of the window — so a producer must hand over
// fresh memory each run: restamping the same slices in place would mutate
// state underneath the engine and quietly turn expiration into a key-miss
// no-op, flattering whichever path stored the aliased slices. Both paths pay
// the identical producer-side allocation. For the negation shape the wide
// domain keeps W1/W2 matches (and thus premature retractions) rare.
func freshenBatch(batch []Arrival, base int64, streams int) {
	per := benchBatchLen / (4 * streams)
	for i := range batch {
		batch[i].TS = base + int64(i/(per*streams))
		old := batch[i].Vals
		batch[i].Vals = []tuple.Value{
			tuple.Int((base*64 + int64(i)) % 20000), old[1], old[2],
		}
	}
}

// restampKeys is freshenBatch without the fresh slices: srcIP rotates in
// place, so the loop allocates nothing of its own. Only sound when nothing
// the engine stored is ever probed again — the allocation-budget test runs
// over a window too long to expire, where corrupting stored values cannot
// change behavior, and harness allocations would drown the signal it gates.
func restampKeys(batch []Arrival, base int64, streams int) {
	per := benchBatchLen / (4 * streams)
	for i := range batch {
		batch[i].TS = base + int64(i/(per*streams))
		batch[i].Vals[0] = tuple.Int((base*64 + int64(i)) % 20000)
	}
}

// BenchmarkIngestBatchGroupByUPA is the row batch path over the grouped
// aggregation — the columnar comparison's baseline.
func BenchmarkIngestBatchGroupByUPA(b *testing.B) {
	benchIngestStateful(b, benchGroupByEngine(b, 5000, false), 1)
}

// BenchmarkIngestColGroupByUPA is the group-by kernel over the identical
// arrival stream.
func BenchmarkIngestColGroupByUPA(b *testing.B) {
	benchIngestStateful(b, benchGroupByEngine(b, 5000, true), 1)
}

// BenchmarkIngestBatchNegateUPA is the row batch path over the negation.
func BenchmarkIngestBatchNegateUPA(b *testing.B) {
	benchIngestStateful(b, benchNegateEngine(b, 5000, false), 2)
}

// BenchmarkIngestColNegateUPA is the negation kernel over the identical
// arrival stream.
func BenchmarkIngestColNegateUPA(b *testing.B) {
	benchIngestStateful(b, benchNegateEngine(b, 5000, true), 2)
}

func benchIngestStateful(b *testing.B, eng *Engine, streams int) {
	wasCol := eng.colOK
	batch := benchStatefulBatch(streams)
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshenBatch(batch, base, streams)
		if err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		base += 4
	}
	b.StopTimer()
	if eng.colOK != wasCol {
		b.Fatalf("colOK = %v after run, want %v", eng.colOK, wasCol)
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}

// colStatefulAllocBudget is the checked-in ceiling for one steady-state
// benchBatchLen-arrival PushBatch through a stateful kernel, measured over a
// window too long for expiry waves to fire during the timed runs: the arrival
// path itself — key hashing, group updates, emission staging, view
// application — must be allocation-free per tuple. What remains is amortized
// growth that no warmup horizon retires completely under a never-expiring
// window (an arena slab every few hundred stored rows, a W2 multiplicity
// list crossing a capacity power, a bucket spill), well below 0.05 per tuple.
const colStatefulAllocBudget = 8.0

// TestColStatefulAllocBudget gates the group-by and negation kernels at
// effectively zero steady-state allocations per arrival.
func TestColStatefulAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	cases := []struct {
		name    string
		eng     *Engine
		streams int
	}{
		{"groupby", benchGroupByEngine(t, 1<<30, true), 1},
		{"negate", benchNegateEngine(t, 1<<30, true), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch := benchStatefulBatch(tc.streams)
			base := int64(0)
			runOnce := func() {
				restampKeys(batch, base, tc.streams)
				if err := tc.eng.PushBatch(batch); err != nil {
					t.Fatal(err)
				}
				base += 4
			}
			// Warm until maps, vectors, and the view reach steady capacity
			// for the 20k-key domain.
			for i := 0; i < 2048; i++ {
				runOnce()
			}
			got := testing.AllocsPerRun(200, runOnce)
			t.Logf("steady-state columnar PushBatch (%s): %.2f allocs per %d-arrival batch (%.4f/tuple)", tc.name, got, benchBatchLen, got/benchBatchLen)
			if got > colStatefulAllocBudget {
				t.Errorf("steady-state columnar PushBatch (%s): %.2f allocs per %d-arrival batch, budget %.2f", tc.name, got, benchBatchLen, colStatefulAllocBudget)
			}
			if !tc.eng.colOK {
				t.Error("engine demoted off the columnar path during the run")
			}
		})
	}
}
