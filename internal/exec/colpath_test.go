package exec

// Exec-level guarantees of the columnar path: engines with and without
// columnar execution are observationally identical on the paper's query
// shapes; plans without full kernel coverage fall back before the first
// arrival; kind-nonconforming data demotes an engine without losing the run;
// and the interner section of a checkpoint restores symbol ids exactly.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/window"
)

// batchFeed pushes the trace through PushBatch in uneven chunks so runs of
// several same-timestamp arrivals (the columnar unit of work) actually form.
func batchFeed(t *testing.T, ex *Engine, trace []Arrival) {
	t.Helper()
	for i := 0; i < len(trace); {
		j := i + 5 + (i/5)%7
		if j > len(trace) {
			j = len(trace)
		}
		if err := ex.PushBatch(trace[i:j]); err != nil {
			t.Fatalf("PushBatch[%d:%d]: %v", i, j, err)
		}
		i = j
	}
}

// colTrace emits runs of several arrivals per (stream, timestamp) so the
// columnar path stamps whole runs, unlike ckptTrace's one-per-tick cadence.
func colTrace(streams, n int) []Arrival {
	r := rand.New(rand.NewSource(17))
	out := make([]Arrival, 0, n)
	ts := int64(0)
	for len(out) < n {
		ts += int64(1 + r.Intn(3))
		s := r.Intn(streams)
		for k := 1 + r.Intn(4); k > 0 && len(out) < n; k-- {
			out = append(out, Arrival{Stream: s, TS: ts, Vals: rndTuple(r)})
		}
	}
	return out
}

func buildColEngine(t *testing.T, q ckptQuery, strat plan.Strategy, cfg Config) *Engine {
	t.Helper()
	root := q.build()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	phys, err := plan.Build(root, strat, plan.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	eng, err := New(phys, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng
}

// colEligible reports whether q's plan under strat qualifies for the
// columnar path, which needs a kernel for every operator and no materialized
// window: only Q1's selects and join and Q6's group-by have kernels, and NT
// materializes every window.
func colEligible(q ckptQuery, strat plan.Strategy) bool {
	switch q.name {
	case "Q1-join-of-selects", "Q6-groupby":
		return strat != plan.NT
	}
	return false
}

// TestColumnarRowBatchEquivalence runs every paper query (plus the Query 6
// group-by) under every strategy twice — columnar enabled (the default) and
// pinned to the row batch path — over an identical bursty trace, and demands
// identical visible state and the same output deltas in the same order.
// Eligibility is pinned (colEligible) so the comparison can't silently go
// vacuous where a plan has full kernel coverage.
func TestColumnarRowBatchEquivalence(t *testing.T) {
	for _, q := range ckptQueries() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			t.Run(fmt.Sprintf("%s/%v", q.name, strat), func(t *testing.T) {
				trace := colTrace(q.streams, 256)

				var colEmits, rowEmits []string
				col := buildColEngine(t, q, strat, Config{LazyInterval: 7, EagerInterval: 1,
					OnEmit: func(d tuple.Tuple) { colEmits = append(colEmits, d.String()) }})
				row := buildColEngine(t, q, strat, Config{LazyInterval: 7, EagerInterval: 1, NoColumnar: true,
					OnEmit: func(d tuple.Tuple) { rowEmits = append(rowEmits, d.String()) }})
				if row.colOK {
					t.Fatal("NoColumnar engine reports colOK")
				}
				if want := colEligible(q, strat); col.colOK != want {
					t.Fatalf("colOK = %v, want %v for %s under %v", col.colOK, want, q.name, strat)
				}

				batchFeed(t, col, trace)
				batchFeed(t, row, trace)
				diffObservations(t, "columnar vs row", observe(t, col), observe(t, row))
				if i, same := firstDiffIndex(colEmits, rowEmits); !same {
					t.Errorf("columnar delta %d is %s, the row chain's %s (%d and %d deltas)",
						i, at(colEmits, i), at(rowEmits, i), len(colEmits), len(rowEmits))
				}
				if col.colOK && col.intern.Len() == 0 {
					t.Error("columnar engine interned no strings over a string-bearing trace")
				}
				if v := col.Violations(); v != 0 {
					t.Errorf("columnar path raised %d update-pattern violations", v)
				}
			})
		}
	}
}

// TestColumnarPlanFallback checks the plan-time ladder: a count-based
// (materialized) window has no vectorized stamp, so the whole plan stays on
// the row path — silently, with identical results to an engine pinned there —
// even though its one operator has a kernel.
func TestColumnarPlanFallback(t *testing.T) {
	q := ckptQuery{"count-window-select", 1, func() *plan.Node {
		src := plan.NewSource(0, window.Spec{Type: window.CountBased, Size: 30}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}}
	trace := colTrace(1, 200)

	col := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7})
	if col.colOK {
		t.Fatal("materialized-window plan must not engage the columnar path")
	}
	row := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7, NoColumnar: true})
	batchFeed(t, col, trace)
	batchFeed(t, row, trace)
	diffObservations(t, "fallback vs row", observe(t, col), observe(t, row))
}

// TestColumnarRuntimeDemotion checks the run-time ladder: the first arrival
// whose kinds disagree with the stream schema demotes the engine permanently,
// the offending run replays through the row path unchanged, and results match
// an engine that never ran columnar. Both ingest shapes (batched run,
// tuple-at-a-time Push) must demote.
func TestColumnarRuntimeDemotion(t *testing.T) {
	q := ckptQueries()[0] // Q1 join of ftp-selects, the columnar-eligible shape
	mixed := colTrace(q.streams, 160)
	// Tuple 80 carries a Float where the schema says Int. Canonical keys make
	// Float(3) and Int(3) the same value downstream, so the row path digests
	// it fine — only the columnar layout must refuse it.
	mixed[80].Vals = []tuple.Value{tuple.Float(3), tuple.String_("ftp"), tuple.Int(9)}

	t.Run("batched-run", func(t *testing.T) {
		col := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7})
		row := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7, NoColumnar: true})
		if !col.colOK {
			t.Fatal("plan did not engage the columnar path")
		}
		batchFeed(t, col, mixed)
		if col.colOK {
			t.Fatal("kind-nonconforming run did not demote the engine")
		}
		batchFeed(t, row, mixed)
		diffObservations(t, "demoted vs row", observe(t, col), observe(t, row))
	})

	t.Run("per-tuple-push", func(t *testing.T) {
		col := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7})
		if !col.colOK {
			t.Fatal("plan did not engage the columnar path")
		}
		for _, a := range mixed[:81] {
			if err := col.Push(a.Stream, a.TS, a.Vals...); err != nil {
				t.Fatalf("Push: %v", err)
			}
		}
		if col.colOK {
			t.Fatal("kind-nonconforming Push did not demote the engine")
		}
	})
}

// TestColumnarStatefulDemotionMidRun drives the run-time ladder through the
// stateful tail: a kind-nonconforming arrival lands mid-trace in a plan whose
// kernel mutates operator state (the group-by downstream of a window), after
// a checkpoint cut at an arbitrary non-batch boundary. The restored engine
// must resume columnar, demote exactly when the bad run arrives, replay that
// run through the row path byte-exactly, and finish indistinguishable from a
// twin that never ran columnar at all — columnar state and row state are the
// same state. Plans without full kernel coverage (Distinct, negation) or with
// materialized windows (NT) stay on the row chain throughout and must finish
// the same way.
func TestColumnarStatefulDemotionMidRun(t *testing.T) {
	qs := ckptQueries()
	for _, q := range []ckptQuery{qs[1], qs[2], qs[4], qs[5]} {
		for _, strat := range []plan.Strategy{plan.NT, plan.UPA} {
			t.Run(fmt.Sprintf("%s/%v", q.name, strat), func(t *testing.T) {
				mixed := colTrace(q.streams, 200)
				// A Float where the schema says Int: canonical keys digest it
				// fine on the row path, only the columnar layout refuses it.
				mixed[130].Vals = []tuple.Value{tuple.Float(3), tuple.String_("ftp"), tuple.Int(9)}
				cut := 71
				eligible := colEligible(q, strat)

				col := buildColEngine(t, q, strat, Config{LazyInterval: 7, EagerInterval: 1})
				if col.colOK != eligible {
					t.Fatalf("colOK = %v, want %v", col.colOK, eligible)
				}
				batchFeed(t, col, mixed[:cut])
				var ckpt bytes.Buffer
				if err := col.Queries()[0].Checkpoint(&ckpt); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}

				restored := buildColEngine(t, q, strat, Config{LazyInterval: 7, EagerInterval: 1})
				if err := restored.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if restored.colOK != eligible {
					t.Fatalf("restored colOK = %v, want %v", restored.colOK, eligible)
				}
				batchFeed(t, restored, mixed[cut:])
				if restored.colOK {
					t.Fatal("kind-nonconforming run did not demote the stateful plan")
				}

				row := buildColEngine(t, q, strat, Config{LazyInterval: 7, EagerInterval: 1, NoColumnar: true})
				batchFeed(t, row, mixed)
				got, want := observe(t, restored), observe(t, row)
				// The state high-water mark is sampled on a cadence the restore
				// cut shifts; it is not comparable across a checkpoint boundary.
				got.stats.MaxStateTuples = 0
				want.stats.MaxStateTuples = 0
				diffObservations(t, "demoted-restored vs row", got, want)
			})
		}
	}
}

// sameInterner asserts two engines hold identical symbol tables: same strings
// in the same id order, and every id resolves both ways.
func sameInterner(t *testing.T, name string, got, want *tuple.Interner) {
	t.Helper()
	gs, ws := got.Strings(), want.Strings()
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatalf("%s: interner diverges\n got %q\nwant %q", name, gs, ws)
	}
	for id, s := range ws {
		if got.Str(uint32(id)) != s {
			t.Fatalf("%s: id %d resolves to %q, want %q", name, id, got.Str(uint32(id)), s)
		}
		if rid, ok := got.Lookup(s); !ok || rid != uint32(id) {
			t.Fatalf("%s: Lookup(%q) = %d,%v, want %d,true", name, s, rid, ok, id)
		}
	}
}

// TestInternerCheckpointRoundTrip cuts a columnar run at an arbitrary point —
// not a sampling or batch boundary — and checks that the checkpoint carries
// the interner: the restored engine resolves every symbol to the same id,
// keeps columnar eligibility, and finishes the trace bit-identical to the
// uninterrupted run.
func TestInternerCheckpointRoundTrip(t *testing.T) {
	q := ckptQueries()[0] // Q1 join of ftp-selects: joins probe on interned ids
	trace := colTrace(q.streams, 300)
	cut := 131

	a := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7, EagerInterval: 1})
	if !a.colOK {
		t.Fatal("plan did not engage the columnar path")
	}
	batchFeed(t, a, trace)
	wantObs := observe(t, a)

	b := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7, EagerInterval: 1})
	batchFeed(t, b, trace[:cut])
	if b.intern.Len() == 0 {
		t.Fatal("no strings interned before the checkpoint cut")
	}
	var ckpt bytes.Buffer
	if err := b.Queries()[0].Checkpoint(&ckpt); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	c := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7, EagerInterval: 1})
	if err := c.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	sameInterner(t, "restored Engine", c.intern, b.intern)
	if !c.colOK {
		t.Fatal("restore dropped columnar eligibility")
	}
	batchFeed(t, c, trace[cut:])
	diffObservations(t, "restored Engine", observe(t, c), wantObs)
}

// TestRestoredDemotionSticks checks the AND rule: a checkpoint written by a
// demoted engine restores as demoted even into an engine whose own plan check
// passed, so row-path state written before the save is never probed columnar.
func TestRestoredDemotionSticks(t *testing.T) {
	q := ckptQueries()[0]
	trace := colTrace(q.streams, 120)
	src := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7})
	batchFeed(t, src, trace[:40])
	src.colOK = false // as if a nonconforming run had demoted it
	var ckpt bytes.Buffer
	if err := src.Queries()[0].Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	dst := buildColEngine(t, q, plan.UPA, Config{LazyInterval: 7})
	if !dst.colOK {
		t.Fatal("fresh engine should start columnar")
	}
	if err := dst.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.colOK {
		t.Fatal("restore resurrected columnar eligibility past a saved demotion")
	}
}
