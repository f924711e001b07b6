package exec

// Allocation-regression gate for batched ingest: steady-state PushBatch on
// the Query 1 shape (join of ftp-selections, UPA plan) must stay within a
// fixed allocation budget per 64-arrival batch. The budget covers what is
// inherently per-result (join output tuples, view mutations) with headroom;
// the point is to fail the build if a change re-introduces per-tuple
// overheads the batch path exists to remove — per-call emission slices,
// per-tuple variadic boxing, unpooled buffers.
//
// Skipped under -race (detector bookkeeping allocates); CI runs the gates in
// a dedicated non-race step.

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/race"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// ingestAllocBudget is the checked-in ceiling for one steady-state 64-arrival
// PushBatch, per plan. Q1/UPA measured ~52 on a warm engine, almost all of
// it inherent per-join-result work (this trace's narrow key domain produces a
// join result for most selected arrivals, and each result Concat-allocates
// its value slice). The headroom absorbs scheduling noise and occasional
// bucket reshaping — not a return to per-call emission slices, per-tuple
// variadic boxing, or per-probe visitor closures, which would add 64+ per
// batch and trip the gate. Q4/UPA — δ under both sides of a join over keyed
// calendars, a calendar view — is held to what the commit before the calendar
// had an index measured (296: its join probed by scan, a visitor closure and
// its captures per probe); 177 now.
// Entry pages, reference runs and index chains are the calendar's own slabs.
var ingestAllocBudget = map[string]float64{
	"Q1-join-of-selects":   70,
	"Q4-join-of-distincts": 296,
}

func TestBatchIngestAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	for _, q := range ckptQueries() {
		budget, ok := ingestAllocBudget[q.name]
		if !ok {
			continue
		}
		t.Run(q.name, func(t *testing.T) {
			eng := buildExecutor(t, q, plan.UPA, 1)

			// A reusable 64-arrival batch: 8 ticks × 2 streams × 4-tuple bursts.
			// Vals are generated once; only timestamps advance between runs.
			r := rand.New(rand.NewSource(17))
			batch := make([]Arrival, 0, 64)
			for tick := 0; tick < 8; tick++ {
				for s := 0; s < 2; s++ {
					for b := 0; b < 4; b++ {
						batch = append(batch, Arrival{Stream: s, TS: int64(tick), Vals: rndTuple(r)})
					}
				}
			}
			base := int64(0)
			runOnce := func() {
				for i := range batch {
					batch[i].TS = base + int64(i/8)
				}
				if err := eng.PushBatch(batch); err != nil {
					t.Fatal(err)
				}
				base += 8
			}
			// Warm far past the 20-tick window horizon so buffer capacities, the
			// view, and the emit pool reach steady state.
			for i := 0; i < 64; i++ {
				runOnce()
			}
			got := testing.AllocsPerRun(100, runOnce)
			t.Logf("steady-state PushBatch: %.1f allocs per 64-arrival batch (%.2f/tuple)", got, got/64)
			if got > budget {
				t.Errorf("steady-state PushBatch: %.1f allocs per 64-arrival batch, budget %.1f", got, budget)
			}
		})
	}
}

// TestBatchIngestAllocBudgetInstrumented holds the instrumented engine
// (metrics registry attached: wall-clock timing, delta-latency histograms,
// conformance monitor all live; span sampling off) to the same steady-state
// budget as the bare engine. The PR 6 instruments are atomic adds into
// preallocated cells, so turning them on must not add a single allocation
// per tuple.
func TestBatchIngestAllocBudgetInstrumented(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	q := ckptQueries()[0] // Q1-join-of-selects
	eng := buildInstrumented(t, q, plan.UPA, 1)

	r := rand.New(rand.NewSource(17))
	batch := make([]Arrival, 0, 64)
	for tick := 0; tick < 8; tick++ {
		for s := 0; s < 2; s++ {
			for b := 0; b < 4; b++ {
				batch = append(batch, Arrival{Stream: s, TS: int64(tick), Vals: rndTuple(r)})
			}
		}
	}
	base := int64(0)
	runOnce := func() {
		for i := range batch {
			batch[i].TS = base + int64(i/8)
		}
		if err := eng.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		base += 8
	}
	for i := 0; i < 64; i++ {
		runOnce()
	}
	got := testing.AllocsPerRun(100, runOnce)
	t.Logf("steady-state instrumented PushBatch: %.1f allocs per 64-arrival batch (%.2f/tuple)", got, got/64)
	if budget := ingestAllocBudget[q.name]; got > budget {
		t.Errorf("steady-state instrumented PushBatch: %.1f allocs per 64-arrival batch, budget %.1f", got, budget)
	}
	if pos, _ := eng.DeltaLatency(); pos.Count == 0 {
		t.Error("instrumented run recorded no delta latency")
	}
}

// colIngestAllocBudget is the checked-in ceiling for one steady-state
// 64-arrival PushBatch on the columnar Q1/UPA path. The acceptance bar is
// zero allocations per tuple: layout vectors, selection masks, probe
// scratch, arena rows (recycled on expiry), and hash buckets (freelisted)
// all reach fixed capacity after warmup. The small headroom absorbs the
// rare amortized growths that survive any warmup horizon — a view page, a
// bucket spill, an arena slab for a fresh row shape — without admitting
// any per-tuple cost (64 arrivals per batch, so even one alloc per tuple
// would overshoot by an order of magnitude).
const colIngestAllocBudget = 4.0

// TestColIngestAllocBudget gates the columnar ingest path at effectively
// zero steady-state allocations, on the instrumented engine (the
// deployment shape the throughput acceptance is measured in).
func TestColIngestAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	eng := benchQ1Engine(t, 5000, true, true)
	batch := benchBatch()
	base := int64(0)
	runOnce := func() {
		restamp(batch, base)
		if err := eng.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		base += 4
	}
	// Warm past the 5000-tick window horizon so expiry, arena recycling, and
	// the bucket freelist reach steady state.
	for i := 0; i < 2048; i++ {
		runOnce()
	}
	got := testing.AllocsPerRun(200, runOnce)
	t.Logf("steady-state columnar PushBatch: %.2f allocs per 64-arrival batch (%.4f/tuple)", got, got/64)
	if got > colIngestAllocBudget {
		t.Errorf("steady-state columnar PushBatch: %.2f allocs per 64-arrival batch, budget %.2f", got, colIngestAllocBudget)
	}
	if !eng.colOK {
		t.Error("engine demoted off the columnar path during the run")
	}
}

// pushAllocBudget holds single-tuple Push — a run of one on the row chain —
// to the allocations per 64 arrivals measured, per query and strategy, once
// DIRECT's list moved onto the FIFO's pages and Project onto 16-row value
// blocks (deterministic). What is left escapes: join results (Concat), one
// Project block per 16 rows, and under NT each window's negatives. The commit
// before measured 234 for Q1, 254 for Q2, 310 for Q5 and 200 for ⋈NRR under
// DIRECT (a list element and a boxed tuple per insert, a visitor closure per
// probe, a fresh slice per expiry pass), and 72 and 64 for Q2 under NT and
// UPA (one projection array per run of one). The ⋈NRR plan pays one
// allocation per matched row: every arrival matches one row, and the probe
// itself allocates nothing.
var pushAllocBudget = map[string]float64{
	"Q1-join-of-selects/NT":      96,
	"Q1-join-of-selects/DIRECT":  48,
	"Q1-join-of-selects/UPA":     48,
	"Q2-distinct-project/NT":     8,
	"Q2-distinct-project/DIRECT": 4,
	"Q2-distinct-project/UPA":    4,
	"Q5-negation-join/NT":        86,
	"Q5-negation-join/DIRECT":    68,
	"Q5-negation-join/UPA":       68,
	"nrr-join/NT":                128,
	"nrr-join/DIRECT":            64,
	"nrr-join/UPA":               64,
}

// nrrAllocQuery is a window ⋈NRR a table holding one row per key the trace
// draws, so each arrival matches exactly one row.
func nrrAllocQuery() ckptQuery {
	return ckptQuery{"nrr-join", 1, func() *plan.Node {
		tbl := relation.NewNRR("companies", companies())
		for sym := int64(0); sym < 6; sym++ {
			if err := tbl.Apply(relation.Update{Kind: relation.Insert, Row: []tuple.Value{tuple.Int(sym), tuple.String_("x")}}); err != nil {
				panic(err)
			}
		}
		src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
		return plan.NewNRRJoin(src, tbl, []int{0}, []int{0})
	}}
}

func TestPushAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	for _, q := range append(ckptQueries(), nrrAllocQuery()) {
		if _, ok := pushAllocBudget[q.name+"/"+plan.UPA.String()]; !ok {
			continue
		}
		t.Run(q.name, func(t *testing.T) {
			for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
				budget, ok := pushAllocBudget[q.name+"/"+strat.String()]
				if !ok {
					continue
				}
				t.Run(strat.String(), func(t *testing.T) {
					eng := buildExecutor(t, q, strat, 1)
					r := rand.New(rand.NewSource(17))
					vals := make([][]tuple.Value, 64)
					for i := range vals {
						vals[i] = rndTuple(r)
					}
					base := int64(0)
					runOnce := func() {
						for i, v := range vals {
							if err := eng.Push(i%q.streams, base+int64(i/8), v...); err != nil {
								t.Fatal(err)
							}
						}
						base += 8
					}
					for i := 0; i < 64; i++ {
						runOnce()
					}
					got := testing.AllocsPerRun(100, runOnce)
					t.Logf("steady-state Push: %.1f allocs per 64 arrivals (%.2f/tuple)", got, got/64)
					if got > budget {
						t.Errorf("steady-state Push: %.1f allocs per 64 arrivals, budget %.1f", got, budget)
					}
				})
			}
		})
	}
}
