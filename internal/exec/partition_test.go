package exec

// Key partitions inside one engine: n copies of a query replayed from one
// run tape must answer exactly what the sequential engine answers, emit the
// same deltas with each key's deltas in the same order, restore the shard
// coordinator's checkpoints, keep every goroutine inside the call, and
// survive a subscriber's panic.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// partitionPlans are the partitionable plans of the shard tests: the paper's
// queries, a group-by on its join key, an intersection, and the two table
// joins of the contract.
func partitionPlans() []contractPlan {
	paper := func(q ckptQuery) contractPlan {
		return contractPlan{name: q.name, streams: q.streams,
			build: func() (*plan.Node, *relation.Table) { return q.build(), nil }}
	}
	qs := ckptQueries()
	cps := contractPlans()
	return []contractPlan{
		paper(qs[0]), paper(qs[1]), paper(qs[2]), paper(qs[3]), paper(qs[4]),
		{name: "Q6-groupby-on-join-key", streams: 2, build: func() (*plan.Node, *relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 12}, linkSchema())
			return plan.NewGroupBy(plan.NewJoin(a, b, []int{0}, []int{0}), []int{0},
				operator.AggSpec{Kind: operator.Count}, operator.AggSpec{Kind: operator.Sum, Col: 2}), nil
		}},
		{name: "intersect", streams: 2, build: func() (*plan.Node, *relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 22}, linkSchema())
			return plan.NewIntersect(plan.NewProject(a, 0), plan.NewProject(b, 0)), nil
		}},
		cps[3], // rel-join
		cps[4], // nrr-join
	}
}

// emitLog records a query's output deltas; partitions may call it from
// several workers at once. mark is where the deltas not yet compared begin.
type emitLog struct {
	mu     sync.Mutex
	deltas []tuple.Tuple
	mark   int
}

func (l *emitLog) add(t tuple.Tuple) {
	l.mu.Lock()
	l.deltas = append(l.deltas, tuple.Tuple{TS: t.TS, Exp: t.Exp, Neg: t.Neg, Vals: slices.Clone(t.Vals)})
	l.mu.Unlock()
}

// fresh returns the deltas since the last call.
func (l *emitLog) fresh() []tuple.Tuple {
	out := l.deltas[l.mark:]
	l.mark = len(l.deltas)
	return out
}

// multiset renders deltas sorted.
func multiset(deltas []tuple.Tuple) string {
	strs := make([]string, len(deltas))
	for i, d := range deltas {
		strs[i] = fmt.Sprintf("%s@%d/%d", d, d.TS, d.Exp)
	}
	sort.Strings(strs)
	return strings.Join(strs, " ")
}

// byKey renders each result row's deltas in emission order.
func byKey(deltas []tuple.Tuple) map[string]string {
	out := map[string]string{}
	for _, d := range deltas {
		k := fmt.Sprint(d.Vals)
		out[k] += fmt.Sprintf(" %s@%d/%d", d, d.TS, d.Exp)
	}
	return out
}

// partRun is one engine of a partition test with its table and its log.
type partRun struct {
	ex  *Engine
	tbl *relation.Table
	log *emitLog
}

func openPartRun(t *testing.T, p contractPlan, strat plan.Strategy, shards int) (partRun, *plan.Node) {
	t.Helper()
	root, tbl := p.build()
	log := &emitLog{}
	phys := buildPhys(t, root, strat, plan.Options{})
	return partRun{openAt(t, phys, Config{LazyInterval: 7, EagerInterval: 1, OnEmit: log.add}, shards), tbl, log}, root
}

// TestPartitionsMatchSequential drives every partitionable plan of the shard
// tests, under every strategy, through one random schedule of Push,
// PushBatch, Advance and table updates, at one partition and at three on two
// processors, and syncs after every step. After every Sync the answers are
// the same bag, the deltas emitted so far are the same multiset, and each
// result row's deltas came in the same order: every partition sees every
// maintenance pass, so none folds an idle tick's expiry into a later one.
func TestPartitionsMatchSequential(t *testing.T) {
	for _, p := range partitionPlans() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			t.Run(p.name+"/"+strat.String(), func(t *testing.T) {
				withProcs(2, func() {
					one, _ := openPartRun(t, p, strat, 1)
					three, _ := openPartRun(t, p, strat, 3)
					r := rand.New(rand.NewSource(57))
					ts := int64(0)
					var inserted [][]tuple.Value
					for step := 0; step < 160; step++ {
						ts += int64(r.Intn(2))
						var do func(run partRun) error
						switch k := r.Intn(10); {
						case k < 4:
							a := Arrival{Stream: r.Intn(p.streams), TS: ts, Vals: rndTuple(r)}
							do = func(run partRun) error { return run.ex.Push(a.Stream, a.TS, a.Vals...) }
						case k < 7:
							batch := make([]Arrival, 2+r.Intn(40))
							for i := range batch {
								ts += int64(r.Intn(2))
								batch[i] = Arrival{Stream: r.Intn(p.streams), TS: ts, Vals: rndTuple(r)}
							}
							do = func(run partRun) error { return run.ex.PushBatch(batch) }
						case k == 7:
							ts += int64(1 + r.Intn(25))
							at := ts
							do = func(run partRun) error { return run.ex.Advance(at) }
						case one.tbl != nil:
							u := relation.Update{Kind: relation.Insert, TS: ts,
								Row: []tuple.Value{tuple.Int(int64(r.Intn(6))), tuple.String_(protos[r.Intn(len(protos))])}}
							if len(inserted) > 3 && r.Intn(3) == 0 {
								u = relation.Update{Kind: relation.Delete, TS: ts, Row: inserted[0]}
								inserted = inserted[1:]
							} else {
								inserted = append(inserted, u.Row)
							}
							do = func(run partRun) error { return run.ex.ApplyTableUpdate(run.tbl, u) }
						default:
							continue
						}
						for _, run := range []partRun{one, three} {
							if err := do(run); err != nil {
								t.Fatalf("step %d at %d partitions: %v", step, run.ex.Shards(), err)
							}
						}
						comparePartRuns(t, step, one, three)
					}
					if len(one.log.deltas) == 0 {
						t.Fatal("nothing emitted: the comparison is vacuous")
					}
				})
			})
		}
	}
}

// comparePartRuns syncs both engines and requires the same answer, and of
// the deltas emitted since the last comparison the same multiset and the
// same per-row order; so the whole runs' emissions agree step by step.
func comparePartRuns(t *testing.T, step int, one, three partRun) {
	t.Helper()
	a, err := one.ex.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := three.ex.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reference.SameBag(reference.RowsOf(a), reference.RowsOf(b)) {
		t.Fatalf("step %d: 3 partitions answer\n%s\n1 partition answers\n%s", step,
			reference.Render(reference.RowsOf(b)), reference.Render(reference.RowsOf(a)))
	}
	d1, d3 := one.log.fresh(), three.log.fresh()
	if got, want := multiset(d3), multiset(d1); got != want {
		t.Fatalf("step %d: emitted multisets differ\n 3: %s\n 1: %s", step, got, want)
	}
	want := byKey(d1)
	for k, got := range byKey(d3) {
		if got != want[k] {
			t.Fatalf("step %d: row %s emitted in another order\n 3:%s\n 1:%s", step, k, got, want[k])
		}
	}
	if s1, s3 := one.ex.Stats(), three.ex.Stats(); s1.Emitted != s3.Emitted || s1.Retracted != s3.Retracted {
		t.Fatalf("step %d: stats differ: 3 %+v, 1 %+v", step, s3, s1)
	}
}

// TestPartitionedPanicReraised: a subscriber panicking during a two-partition
// PushBatch replayed on workers (one that fills the tape, so it replays
// before it returns) panics the caller with its own value, leaves no
// goroutine behind, and Close still returns nil.
func TestPartitionedPanicReraised(t *testing.T) {
	withProcs(2, func() {
		type boom struct{ at int }
		var mu sync.Mutex
		calls := 0
		q := ckptQueries()[0]
		phys := buildPhys(t, q.build(), plan.UPA, plan.Options{})
		ex := openAt(t, phys, Config{OnEmit: func(tuple.Tuple) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 3 {
				panic(boom{n})
			}
		}}, 2)
		if !ex.sharesReplay(true) {
			t.Fatalf("%d components: the batch would replay on the caller", len(ex.comps))
		}
		r := rand.New(rand.NewSource(5))
		batch := make([]Arrival, tapeFlushRows+400)
		for i := range batch {
			vals := rndTuple(r)
			vals[1] = tuple.String_("ftp")
			batch[i] = Arrival{Stream: i % 2, TS: int64(i / 4), Vals: vals}
		}
		base := runtime.NumGoroutine()
		got := func() (v any) {
			defer func() { v = recover() }()
			_ = ex.PushBatch(batch)
			return nil
		}()
		if got != (boom{3}) {
			t.Fatalf("recovered %v, want the subscriber's own value", got)
		}
		// The join has completed when PushBatch panics; allow the scheduler
		// a moment to retire the exited worker.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
		if err := ex.Close(); err != nil {
			t.Fatalf("Close after the panic: %v", err)
		}
	})
}

// TestPartitionedJoinWait: the caller's wait at the partition join is the
// partitioned engine's MetricShardQueueBlocked series, recorded on a timed
// engine that replayed on workers.
func TestPartitionedJoinWait(t *testing.T) {
	withProcs(2, func() {
		reg := obs.NewRegistry()
		q := ckptQueries()[3]
		ex := openAt(t, buildPhys(t, q.build(), plan.UPA, plan.Options{}), Config{Metrics: reg}, 2)
		trace := ckptTrace(q.streams)
		for i := 0; i < 50; i++ {
			if err := ex.PushBatch(trace); err != nil {
				t.Fatal(err)
			}
			for j := range trace {
				trace[j].TS += 1000
			}
		}
		if v := reg.Snapshot().Counters[MetricShardQueueBlocked]; v <= 0 {
			t.Errorf("%s = %d after 50 parallel replays, want > 0", MetricShardQueueBlocked, v)
		}
	})
}

// TestParallelReplayTableProbesOverlap: two ⋈NRR queries over one table are
// two components, and their probes run on two workers at once. Each blocks
// in its first callback until the other's first callback has started, which
// only a concurrent replay lets happen; under -race the shared probes are
// checked too.
func TestParallelReplayTableProbesOverlap(t *testing.T) {
	withProcs(2, func() {
		e := NewMulti(Config{})
		tbl := relation.NewNRR("companies", companies())
		for k := int64(0); k < 6; k++ {
			if err := e.ApplyTableUpdate(tbl, relation.Update{Kind: relation.Insert, TS: 0,
				Row: []tuple.Value{tuple.Int(k), tuple.String_("Sun")}}); err != nil {
				t.Fatal(err)
			}
		}
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		var hs [2]*QueryHandle
		for i := range started {
			first := true
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: int64(10 + 5*i)}, linkSchema())
			h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("nrr%d", i),
				Phys: buildPhys(t, plan.NewNRRJoin(src, tbl, []int{0}, []int{0}), plan.UPA, plan.Options{}),
				OnEmit: func(tuple.Tuple) {
					if !first {
						return
					}
					first = false
					close(started[i])
					select {
					case <-started[1-i]:
					case <-time.After(10 * time.Second):
						t.Errorf("nrr%d's first callback never overlapped the other query's", i)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		if compOf(e, hs[0]) == compOf(e, hs[1]) {
			t.Fatal("two ⋈NRR queries over one table landed in one component")
		}
		if !e.sharesReplay(true) {
			t.Fatalf("%d components, columnar %v: the registry would replay inline", len(e.comps), e.colOK)
		}
		r := rand.New(rand.NewSource(9))
		batch := make([]Arrival, 64)
		for i := range batch {
			batch[i] = Arrival{Stream: 0, TS: int64(1 + i/4), Vals: rndTuple(r)}
		}
		if err := e.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPartitionedRestoreRefusesOtherCount: a checkpoint restores only at its
// own partition count; any other count is refused with a shards mismatch
// before state is touched.
func TestPartitionedRestoreRefusesOtherCount(t *testing.T) {
	q := ckptQueries()[3]
	trace := ckptTrace(q.streams)
	var ckpts [4][]byte
	for n := 1; n <= 3; n++ {
		ex := buildExecutor(t, q, plan.UPA, n)
		feed(t, ex, trace[:100])
		var b bytes.Buffer
		if err := ex.Queries()[0].Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		ckpts[n] = b.Bytes()
	}
	for n := 1; n <= 3; n++ {
		for m := 1; m <= 3; m++ {
			if m == n {
				continue
			}
			ex := buildExecutor(t, q, plan.UPA, m)
			feed(t, ex, trace[:50])
			before := observeNoAdvance(t, ex)
			err := ex.Restore(bytes.NewReader(ckpts[n]))
			var mm *checkpoint.MismatchError
			if !errors.As(err, &mm) || mm.Field != "shards" {
				t.Fatalf("%d-partition checkpoint into %d: %v, want MismatchError{Field: shards}", n, m, err)
			}
			diffObservations(t, fmt.Sprintf("%d into %d after refused restore", n, m), observeNoAdvance(t, ex), before)
		}
	}
}

// TestPartitionedPushBatchDefers: a partitioned engine's PushBatch below the
// tape's flush bound stamps its rows and leaves their replay to a later
// call, and a later call that reads or writes the whole state replays them
// first: Checkpoint writes the state an engine fed the same arrivals one
// Push at a time holds, and the watermark moves only with the replay.
func TestPartitionedPushBatchDefers(t *testing.T) {
	q := ckptQueries()[3]
	trace := ckptTrace(q.streams)[:100]
	emitted := 0
	batched := openAt(t, buildPhys(t, q.build(), plan.UPA, plan.Options{}),
		Config{LazyInterval: 7, EagerInterval: 1, OnEmit: func(tuple.Tuple) { emitted++ }}, 2)
	pushed := buildExecutor(t, q, plan.UPA, 2)
	withProcs(1, func() {
		if err := batched.PushBatch(trace); err != nil {
			t.Fatal(err)
		}
	})
	if emitted != 0 || batched.Watermark() != -1 {
		t.Fatalf("after a short PushBatch: %d emitted, watermark %d; want the replay deferred", emitted, batched.Watermark())
	}
	if batched.Clock() != trace[len(trace)-1].TS || batched.Stats().Arrivals != int64(len(trace)) {
		t.Fatalf("clock %d, %d arrivals: the window stage did not run", batched.Clock(), batched.Stats().Arrivals)
	}
	feed(t, pushed, trace)
	var ckpt bytes.Buffer
	if err := batched.Queries()[0].Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if want := pushed.Stats().Emitted; int64(emitted) != want || want == 0 {
		t.Fatalf("Checkpoint replayed %d deltas, Pushes emitted %d", emitted, want)
	}
	if batched.Watermark() != pushed.Watermark() {
		t.Fatalf("watermark %d after the replay, %d after Pushes", batched.Watermark(), pushed.Watermark())
	}
	restored := buildExecutor(t, q, plan.UPA, 2)
	if err := restored.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	got, want := observe(t, restored), observe(t, pushed)
	// The peak is sampled per call: once for the batch, per arrival for Pushes.
	got.stats.MaxStateTuples = want.stats.MaxStateTuples
	diffObservations(t, "restored after a deferred PushBatch", got, want)
}

// TestPartitionedDeferredSample: a state sample that falls due on a
// PushBatch whose tape stays pending is taken when the tape replays, so the
// peak counts the operator state the rows produce. A one-row PushBatch into
// a two-stream join, left pending and then checkpointed, reads the peak of
// the same row replayed at once: its window row and its join state.
func TestPartitionedDeferredSample(t *testing.T) {
	phys := func() *plan.Physical {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 40}, linkSchema())
		b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 60}, linkSchema())
		return buildPhys(t, plan.NewJoin(a, b, []int{0}, []int{0}), plan.NT, plan.Options{})
	}
	row := ckptTrace(2)[:1]
	deferred := openAt(t, phys(), Config{}, 2)
	withProcs(1, func() {
		if err := deferred.PushBatch(row); err != nil {
			t.Fatal(err)
		}
	})
	if deferred.Watermark() != -1 {
		t.Fatal("the one-row PushBatch replayed at once; want it left on the tape")
	}
	var ckpt bytes.Buffer
	if err := deferred.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	atOnce := openAt(t, phys(), Config{}, 2)
	if err := atOnce.Push(row[0].Stream, row[0].TS, row[0].Vals...); err != nil {
		t.Fatal(err)
	}
	restored := openAt(t, phys(), Config{}, 2)
	if err := restored.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	want := atOnce.Stats().MaxStateTuples
	if want != 2 {
		t.Fatalf("replayed at once, the peak is %d; want 2", want)
	}
	for name, ex := range map[string]*Engine{"left pending": deferred, "restored": restored} {
		if got := ex.Stats().MaxStateTuples; got != want {
			t.Errorf("%s: peak %d, replayed at once %d", name, got, want)
		}
	}
}

// TestPartitionedEngineCheckpointRoundTrip: a partitioned engine holds one
// query, so its own Checkpoint is that query's standalone checkpoint. It
// replays what a deferred PushBatch left on the tape, writes the bytes the
// handle writes, and restores, through Restore, to the same answer; the
// engine still refuses registration.
func TestPartitionedEngineCheckpointRoundTrip(t *testing.T) {
	p := partitionPlans()[0]
	run, _ := openPartRun(t, p, plan.UPA, 2)
	withProcs(1, func() {
		if err := run.ex.PushBatch(ckptTrace(p.streams)[:49]); err != nil {
			t.Fatal(err)
		}
	})
	var ckpt, viaHandle bytes.Buffer
	if err := run.ex.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	h := run.ex.Queries()[0]
	if err := h.Checkpoint(&viaHandle); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Bytes(), viaHandle.Bytes()) {
		t.Fatal("the engine's checkpoint differs from its one query's")
	}
	fresh, _ := openPartRun(t, p, plan.UPA, 2)
	if err := fresh.ex.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	want, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.ex.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := reference.RowsOf(got), reference.RowsOf(want); len(w) == 0 || !reference.SameBag(g, w) {
		t.Fatalf("restored answer\n%swant (non-empty)\n%s", reference.Render(g), reference.Render(w))
	}
	if _, err := run.ex.RegisterQuery(QuerySpec{Phys: buildPhys(t, joinPlan(20), plan.UPA, plan.Options{})}); err == nil {
		t.Fatal("RegisterQuery accepted on a partitioned engine")
	}
}
