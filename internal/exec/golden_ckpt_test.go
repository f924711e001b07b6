package exec

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/plan"
	"repro/internal/window"
)

// goldenCheckpoints names the engine checkpoints under testdata/ that a
// parent commit wrote after the first 128 arrivals of ckptTrace. The UPA ones
// are 7ac7748's, before PartitionedBuffer stored slab references and kept a
// key index, with join sides and the strict-root view scanned: Q4 holds keyed
// calendars on both join sides under a weak (unkeyed) calendar view; Q5 with
// the negation pulled up and STRPartitioned holds the keyed calendar view that
// negative tuples retract from. Q4 under NT is 227f40a's, before HashBuffer
// moved onto the keyed store: its join sides, δ inputs and view are five hash
// buffers.
func goldenCheckpoints() []struct {
	file   string
	q      ckptQuery
	strat  plan.Strategy
	opts   plan.Options
	shards int
} {
	qs := ckptQueries()
	q4, q5 := qs[3], qs[4]
	q5up := ckptQuery{"Q5-negation-pulled-up", 3, func() *plan.Node {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
		b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
		c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
		return plan.NewNegate(plan.NewJoin(a, c, []int{0}, []int{0}), b, []int{0}, []int{0})
	}}
	return []struct {
		file   string
		q      ckptQuery
		strat  plan.Strategy
		opts   plan.Options
		shards int
	}{
		{"q4_upa.ckpt", q4, plan.UPA, plan.Options{}, 1},
		{"q4_upa_shards2.ckpt", q4, plan.UPA, plan.Options{}, 2},
		{"q5_upa.ckpt", q5, plan.UPA, plan.Options{}, 1},
		{"q5_pullup_upa_strpartitioned.ckpt", q5up, plan.UPA, plan.Options{STR: plan.STRPartitioned}, 1},
		{"q4_nt.ckpt", q4, plan.NT, plan.Options{}, 1},
	}
}

// tableGoldens names the checkpoints the commit before relation tables kept
// insertion order (5c78873) wrote at contractCut of the contract's ⋈R plan
// (over a join): each of the table's two keys held two distinct rows and a
// duplicate, saved in key order rather than the z, z, x they were inserted in.
var tableGoldens = []struct {
	file  string
	strat plan.Strategy
}{{"reljoin_upa.ckpt", plan.UPA}, {"reljoin_nt.ckpt", plan.NT}}

// TestRestoreParentCheckpoints restores each of them into an engine built by
// this commit, feeds the rest of the trace (of the contract schedule, for the
// table goldens), and requires every visible signal
// to equal an uninterrupted run's: the format version, the plan fingerprint
// and the section layouts have not moved, and the rebuilt index serves the
// same state.
func TestRestoreParentCheckpoints(t *testing.T) {
	for _, g := range goldenCheckpoints() {
		t.Run(g.file, func(t *testing.T) {
			ckpt, err := os.ReadFile("testdata/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			trace := ckptTrace(g.q.streams)
			whole := buildExecutorOpts(t, g.q, g.strat, g.opts, g.shards)
			feed(t, whole, trace)
			want := observe(t, whole)

			resumed := buildExecutorOpts(t, g.q, g.strat, g.opts, g.shards)
			if err := resumed.Restore(bytes.NewReader(ckpt)); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			feed(t, resumed, trace[128:])
			got := observe(t, resumed)
			if g.strat == plan.NT {
				// Nothing in an NT engine has changed its layout or its cost
				// accounting since: the cut is the parent's, byte for byte.
				cut := buildExecutorOpts(t, g.q, g.strat, g.opts, g.shards)
				feed(t, cut, trace[:128])
				sameBytes(t, "an executor fed the parent's prefix", cut, ckpt)
			}
			if g.shards > 1 {
				// Sampled at batch granularity; see TestCheckpointRestoreEquivalence.
				got.stats.MaxStateTuples, want.stats.MaxStateTuples = 0, 0
			}
			diffObservations(t, "restored from the parent's checkpoint", got, want)
		})
	}

	// The table goldens play the rest of the contract schedule instead.
	p := contractPlans()[3] // rel-join
	steps := contractSteps(p)
	for _, g := range tableGoldens {
		t.Run(g.file, func(t *testing.T) {
			ckpt, err := os.ReadFile("testdata/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			whole := openContract(t, p, g.strat, 1)
			whole.play(t, steps)
			want := observe(t, whole.ex)

			resumed := openContract(t, p, g.strat, 1)
			if err := resumed.ex.Restore(bytes.NewReader(ckpt)); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if n := resumed.tbl.Len(); n != 6 {
				t.Fatalf("restored table holds %d rows, want 6", n)
			}
			resumed.play(t, steps[contractCut:])
			diffObservations(t, "restored from the parent's checkpoint", observe(t, resumed.ex), want)
		})
	}
}
