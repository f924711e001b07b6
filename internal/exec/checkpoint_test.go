package exec

// Restore-equivalence conformance for the checkpoint subsystem: a run that is
// checkpointed mid-trace and restored into a fresh executor must be
// indistinguishable — identical view snapshot, result count, cumulative
// stats, clock, and watermark — from the same run left uninterrupted, across
// the paper's query shapes, all three execution strategies, and both the
// sequential and the partitioned engine. Mismatched restores (different
// query, strategy, or partition count) must fail with a typed error before
// touching any state.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/window"
)

// ckptQuery is one paper query shape: a fresh logical plan per call (Annotate
// mutates the tree) plus the number of base streams it consumes.
type ckptQuery struct {
	name    string
	streams int
	build   func() *plan.Node
}

func ckptQueries() []ckptQuery {
	ftpSel := func(id int, size int64) *plan.Node {
		src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: size}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	return []ckptQuery{
		{"Q1-join-of-selects", 2, func() *plan.Node {
			return plan.NewJoin(ftpSel(0, 20), ftpSel(1, 20), []int{0}, []int{0})
		}},
		{"Q2-distinct-project", 1, func() *plan.Node {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			return plan.NewDistinct(plan.NewProject(src, 0))
		}},
		{"Q3-negation", 2, func() *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 22}, linkSchema())
			return plan.NewNegate(a, b, []int{0}, []int{0})
		}},
		{"Q4-join-of-distincts", 2, func() *plan.Node {
			d := func(id int) *plan.Node {
				src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: 16}, linkSchema())
				return plan.NewDistinct(plan.NewProject(src, 0, 1))
			}
			return plan.NewJoin(d(0), d(1), []int{0}, []int{0})
		}},
		{"Q5-negation-join", 3, func() *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
			neg := plan.NewNegate(a, b, []int{0}, []int{0})
			return plan.NewJoin(neg, ftpSel(2, 20), []int{0}, []int{0})
		}},
		{"Q6-groupby", 1, gbPlan},
	}
}

// buildExecutor compiles q fresh with default planner options and opens it
// at the given shard count (1: the plain engine).
func buildExecutor(t *testing.T, q ckptQuery, strat plan.Strategy, shards int) *Engine {
	t.Helper()
	return buildExecutorOpts(t, q, strat, plan.Options{}, shards)
}

func buildExecutorOpts(t *testing.T, q ckptQuery, strat plan.Strategy, opts plan.Options, shards int) *Engine {
	t.Helper()
	return openQuery(t, q, strat, opts, Config{LazyInterval: 7, EagerInterval: 1}, shards)
}

// openQuery plans q and opens it at exactly the given shard count; a fallback
// fails the test.
func openQuery(t *testing.T, q ckptQuery, strat plan.Strategy, opts plan.Options, cfg Config, shards int) *Engine {
	t.Helper()
	root := q.build()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	phys, err := plan.Build(root, strat, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return openAt(t, phys, cfg, shards)
}

// ckptTrace is a deterministic arrival sequence: 192 tuples round-robined
// over the query's streams, so the checkpoint cut at tuple 128 lands exactly
// on a 64-arrival state-sampling boundary of the sequential engine.
func ckptTrace(streams int) []Arrival {
	r := rand.New(rand.NewSource(11))
	out := make([]Arrival, 0, 192)
	for ts := int64(0); ts < 192; ts++ {
		out = append(out, Arrival{Stream: int(ts) % streams, TS: ts, Vals: rndTuple(r)})
	}
	return out
}

func feed(t *testing.T, ex *Engine, trace []Arrival) {
	t.Helper()
	for _, a := range trace {
		if err := ex.Push(a.Stream, a.TS, a.Vals...); err != nil {
			t.Fatalf("Push(%d,%d): %v", a.Stream, a.TS, err)
		}
	}
}

// observe finalizes a run (advance past all windows, sync) and renders every
// externally visible signal.
type observation struct {
	rows      []string
	count     int
	stats     Stats
	clock     int64
	watermark int64
}

func observe(t *testing.T, ex *Engine) observation {
	t.Helper()
	if err := ex.Advance(400); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if err := ex.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	snap, err := ex.Queries()[0].Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	rows := make([]string, 0, len(snap))
	for _, tp := range snap {
		rows = append(rows, tp.String())
	}
	sort.Strings(rows)
	n, err := ex.Queries()[0].ResultCount()
	if err != nil {
		t.Fatalf("ResultCount: %v", err)
	}
	return observation{rows: rows, count: n, stats: ex.Stats(), clock: ex.Clock(), watermark: ex.Watermark()}
}

func diffObservations(t *testing.T, name string, got, want observation) {
	t.Helper()
	if fmt.Sprint(got.rows) != fmt.Sprint(want.rows) {
		t.Errorf("%s: snapshot diverges\n got (%d rows): %v\nwant (%d rows): %v",
			name, len(got.rows), got.rows, len(want.rows), want.rows)
	}
	if got.count != want.count {
		t.Errorf("%s: ResultCount = %d, want %d", name, got.count, want.count)
	}
	if got.stats != want.stats {
		t.Errorf("%s: Stats = %+v, want %+v", name, got.stats, want.stats)
	}
	if got.clock != want.clock || got.watermark != want.watermark {
		t.Errorf("%s: clock/watermark = %d/%d, want %d/%d",
			name, got.clock, got.watermark, want.clock, want.watermark)
	}
}

// TestResumedTouchesMatchStraight cuts the Q5 pull-up plan under UPA, whose
// STR-partitioned view takes the negation's retractions, at every 16th
// arrival, restores the cut into a fresh executor and feeds it the rest. Each
// resumed run must count the tuple touches of the straight run: a retraction
// leaves nothing in the view's calendar that the checkpoint does not carry.
func TestResumedTouchesMatchStraight(t *testing.T) {
	q, opts := q5PullUpQuery(), plan.Options{STR: plan.STRPartitioned}
	trace := ckptTrace(q.streams)
	touched := func(ex *Engine) int64 {
		observe(t, ex)
		n, err := ex.Touched()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	straight := buildExecutorOpts(t, q, plan.UPA, opts, 1)
	feed(t, straight, trace)
	want := touched(straight)
	for cut := 16; cut < len(trace); cut += 16 {
		a := buildExecutorOpts(t, q, plan.UPA, opts, 1)
		feed(t, a, trace[:cut])
		var ckpt bytes.Buffer
		if err := a.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		b := buildExecutorOpts(t, q, plan.UPA, opts, 1)
		if err := b.Restore(&ckpt); err != nil {
			t.Fatal(err)
		}
		feed(t, b, trace[cut:])
		if got := touched(b); got != want {
			t.Errorf("cut at %d: resumed run touched %d tuples, the straight run %d", cut, got, want)
		}
	}
}

// TestCheckpointRestoreEquivalence runs three executors over the same trace:
// A uninterrupted, B checkpointed mid-trace and continued, C restored from
// B's checkpoint into a fresh executor and fed the rest. All three must agree
// on every visible signal, and B must be unperturbed by having checkpointed.
// The checkpoint is also a function of the input alone: a second executor fed
// the same prefix writes B's exact bytes, and so does C checkpointed again
// right after its Restore.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, q := range ckptQueries() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", q.name, strat, shards), func(t *testing.T) {
					trace := ckptTrace(q.streams)
					half := 128

					a := buildExecutor(t, q, strat, shards)
					feed(t, a, trace)
					wantObs := observe(t, a)

					b := buildExecutor(t, q, strat, shards)
					feed(t, b, trace[:half])
					var ckpt bytes.Buffer
					if err := b.Queries()[0].Checkpoint(&ckpt); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
					feed(t, b, trace[half:])
					bObs := observe(t, b)

					twin := buildExecutor(t, q, strat, shards)
					feed(t, twin, trace[:half])
					sameBytes(t, "a second executor fed the same prefix", twin, ckpt.Bytes())

					c := buildExecutor(t, q, strat, shards)
					if err := c.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
						t.Fatalf("Restore: %v", err)
					}
					sameBytes(t, "the restored executor", c, ckpt.Bytes())
					feed(t, c, trace[half:])
					cObs := observe(t, c)

					diffObservations(t, "B (checkpointed, continued)", bObs, wantObs)
					diffObservations(t, "C (restored) vs B", cObs, bObs)
				})
			}
		}
	}
}

// sameBytes checkpoints ex and requires exactly want, reporting the first
// differing byte.
func sameBytes(t *testing.T, who string, ex *Engine, want []byte) {
	t.Helper()
	var got bytes.Buffer
	if err := ex.Queries()[0].Checkpoint(&got); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	at := 0
	for at < min(got.Len(), len(want)) && got.Bytes()[at] == want[at] {
		at++
	}
	t.Errorf("%s checkpoints %d bytes differing from B's %d at byte %d", who, got.Len(), len(want), at)
}

func phys2(t *testing.T, q ckptQuery) *plan.Physical {
	t.Helper()
	root := q.build()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return phys
}

// TestRestoreMismatchSafety checks that restoring into an executor built from
// a different query, strategy, or partition count fails with
// *checkpoint.MismatchError before mutating any state.
func TestRestoreMismatchSafety(t *testing.T) {
	qs := ckptQueries()
	trace := ckptTrace(qs[0].streams)

	src := buildExecutor(t, qs[0], plan.UPA, 1)
	feed(t, src, trace[:64])
	var ckpt bytes.Buffer
	if err := src.Queries()[0].Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		build func(t *testing.T) *Engine
		field string
	}{
		{"different query", func(t *testing.T) *Engine {
			return buildExecutor(t, qs[1], plan.UPA, 1)
		}, "plan"},
		{"different strategy", func(t *testing.T) *Engine {
			return buildExecutor(t, qs[0], plan.NT, 1)
		}, "plan"},
		{"sharded layout", func(t *testing.T) *Engine {
			return buildExecutor(t, qs[0], plan.UPA, 4)
		}, "shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := tc.build(t)
			// Feed a little state first so "unchanged" is observable.
			pre := trace[:16]
			if tc.field == "plan" && tc.name == "different query" {
				pre = ckptTrace(qs[1].streams)[:16]
			}
			feed(t, ex, pre)
			before := observeNoAdvance(t, ex)

			err := ex.Restore(bytes.NewReader(ckpt.Bytes()))
			var mm *checkpoint.MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("Restore error = %v, want *checkpoint.MismatchError", err)
			}
			if mm.Field != tc.field {
				t.Fatalf("MismatchError.Field = %q, want %q", mm.Field, tc.field)
			}

			after := observeNoAdvance(t, ex)
			if fmt.Sprint(before) != fmt.Sprint(after) {
				t.Fatalf("failed restore mutated state:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}

	// A 4-shard checkpoint must also refuse a 1-shard executor.
	t.Run("4-shard checkpoint into engine", func(t *testing.T) {
		sh := buildExecutor(t, qs[0], plan.UPA, 4)
		feed(t, sh, trace[:64])
		var ck4 bytes.Buffer
		if err := sh.Queries()[0].Checkpoint(&ck4); err != nil {
			t.Fatal(err)
		}
		eng := buildExecutor(t, qs[0], plan.UPA, 1)
		err := eng.Restore(bytes.NewReader(ck4.Bytes()))
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) || mm.Field != "shards" {
			t.Fatalf("Restore error = %v, want shards MismatchError", err)
		}
	})

	// Corrupt input must surface checkpoint.ErrCorrupt, again without
	// mutating the target.
	t.Run("corrupt stream", func(t *testing.T) {
		ex := buildExecutor(t, qs[0], plan.UPA, 1)
		feed(t, ex, trace[:16])
		before := observeNoAdvance(t, ex)
		err := ex.Restore(bytes.NewReader(ckpt.Bytes()[:len(ckpt.Bytes())/3]))
		if err == nil {
			t.Fatal("truncated checkpoint restored without error")
		}
		after := observeNoAdvance(t, ex)
		if fmt.Sprint(before) != fmt.Sprint(after) {
			t.Fatalf("failed restore mutated state:\nbefore %+v\nafter  %+v", before, after)
		}
	})
}

// observeNoAdvance renders visible state without advancing time (mismatch
// tests must not disturb the executor between the before/after readings).
func observeNoAdvance(t *testing.T, ex *Engine) observation {
	t.Helper()
	snap, err := ex.Queries()[0].Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	rows := make([]string, 0, len(snap))
	for _, tp := range snap {
		rows = append(rows, tp.String())
	}
	sort.Strings(rows)
	n, err := ex.Queries()[0].ResultCount()
	if err != nil {
		t.Fatalf("ResultCount: %v", err)
	}
	return observation{rows: rows, count: n, stats: ex.Stats(), clock: ex.Clock(), watermark: ex.Watermark()}
}

// TestCheckpointMetrics checks the upa_checkpoint_* series move.
func TestCheckpointMetrics(t *testing.T) {
	q := ckptQueries()[0]
	eng := buildExecutor(t, q, plan.UPA, 1)
	feed(t, eng, ckptTrace(q.streams)[:32])
	var ckpt bytes.Buffer
	if err := eng.Queries()[0].Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if got := eng.met.checkpoints.Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricCheckpoints, got)
	}
	if got := eng.met.checkpointBytes.Value(); got != int64(ckpt.Len()) {
		t.Fatalf("%s = %d, want %d", MetricCheckpointBytes, got, ckpt.Len())
	}
	fresh := buildExecutor(t, q, plan.UPA, 1)
	if err := fresh.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.met.restores.Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRestores, got)
	}
}
