package exec

// Delta-latency plumbing tests: span sampling through the tracer and the
// engine-level histograms on entry points the conformance acceptance suite
// doesn't cover.

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
)

// TestDeltaSpanSampling runs an engine with 1-in-1 span sampling and a ring
// sink, and requires per-operator EvDeltaSpan events with the "class#id"
// node naming.
func TestDeltaSpanSampling(t *testing.T) {
	q := ckptQueries()[0] // Q1-join-of-selects
	root := q.build()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(4096)
	cfg := Config{
		Tracer:           obs.NewTracer(ring).Only(obs.EvDeltaSpan),
		TraceSampleEvery: 1,
	}
	eng, err := New(phys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, eng, ckptTrace(q.streams))
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	spans := 0
	nodes := map[string]bool{}
	for _, ev := range ring.Events() {
		if ev.Kind != obs.EvDeltaSpan {
			t.Fatalf("unexpected event kind %v (tracer restricted to spans)", ev.Kind)
		}
		if ev.Nanos < 0 {
			t.Errorf("span with negative dwell: %+v", ev)
		}
		nodes[ev.Node] = true
		spans++
	}
	if spans == 0 {
		t.Fatal("1-in-1 sampling produced no spans")
	}
	// Q1 is join(select, select): all three operators must appear.
	for _, want := range []string{"join#0", "select#1", "select#2"} {
		if !nodes[want] {
			t.Errorf("no span for operator %s (got %v)", want, nodes)
		}
	}
}

// TestDeltaSpanSamplingRate checks 1-in-N arming: with N far above the
// arrival count, no span is ever emitted.
func TestDeltaSpanSamplingRate(t *testing.T) {
	q := ckptQueries()[0]
	root := q.build()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(64)
	eng, err := New(phys, Config{
		Tracer:           obs.NewTracer(ring).Only(obs.EvDeltaSpan),
		TraceSampleEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, eng, ckptTrace(q.streams))
	if got := len(ring.Events()); got != 0 {
		t.Errorf("sampling 1-in-2^30 over 192 arrivals emitted %d spans, want 0", got)
	}
}

// TestShardedLatencyIncludesQueueWait: a sharded run's latency origin is
// stamped when the arrival is first buffered, so recorded latency is
// strictly positive and covers at least the worker hand-off.
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
