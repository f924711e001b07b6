package exec

// Delta-latency plumbing tests: the engine-level histograms on entry points
// the conformance acceptance suite doesn't cover.

import (
	"testing"

	"repro/internal/plan"
)

// TestShardedLatencyCoversEveryDelta: a partitioned run charges every
// delta of every partition to the latency histograms, with an origin taken
// when the call entered the engine, so recorded latency is strictly positive
// and covers the replay on the workers.
func TestShardedLatencyCoversEveryDelta(t *testing.T) {
	q := ckptQueries()[0]
	sh := buildInstrumented(t, q, plan.NT, 4)
	trace := ckptTrace(q.streams)
	// Batch path: the same entry point upaquery and bench use.
	if err := sh.PushBatch(trace); err != nil {
		t.Fatal(err)
	}
	if err := sh.Sync(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	pos, neg := sh.DeltaLatency()
	if pos.Count != st.Emitted || neg.Count != st.Retracted {
		t.Errorf("latency counts (pos %d, neg %d) != deltas (emitted %d, retracted %d)",
			pos.Count, neg.Count, st.Emitted, st.Retracted)
	}
	if st.Emitted > 0 && pos.P50 <= 0 {
		t.Errorf("sharded p50 = %d, want > 0", pos.P50)
	}
}
