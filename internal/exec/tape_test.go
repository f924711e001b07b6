package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/cql"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/race"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// withProcs runs fn with GOMAXPROCS set to n and restores the old value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// diffQuery is one query of the parallel-replay differential registry. build
// receives the engine's own relation table.
type diffQuery struct {
	name  string
	strat plan.Strategy
	build func(tbl *relation.Table) *plan.Node
}

// diffQueries is a registry of twelve components: UPA, NT and DIRECT
// queries sharing windows within their strategy, δ-distinct, a count window,
// a bare window, and two ⋈NRR queries over one table, each its own
// component.
func diffQueries() []diffQuery {
	win := func(id int, size int64) *plan.Node {
		return plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: size}, linkSchema())
	}
	ftp := func(n *plan.Node) *plan.Node {
		return plan.NewSelect(n, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	q1 := func(cut int64) func(*relation.Table) *plan.Node {
		return func(*relation.Table) *plan.Node {
			j := plan.NewJoin(ftp(win(0, 20)), ftp(win(1, 20)), []int{0}, []int{0})
			return plan.NewSelect(j, operator.ColConst{Col: 2, Op: operator.GT, Val: tuple.Int(cut)})
		}
	}
	q3 := func(*relation.Table) *plan.Node { return plan.NewNegate(win(0, 14), win(1, 22), []int{0}, []int{0}) }
	return []diffQuery{
		{"q1-lo", plan.UPA, q1(10)},
		{"q1-hi", plan.UPA, q1(60)},
		{"q3-upa", plan.UPA, q3},
		{"q3-nt", plan.NT, q3},
		{"q2-nt", plan.NT, func(*relation.Table) *plan.Node { return plan.NewDistinct(plan.NewProject(win(1, 22), 0)) }},
		{"q2-upa", plan.UPA, func(*relation.Table) *plan.Node { return plan.NewDistinct(plan.NewProject(win(2, 12), 0)) }},
		{"q2-direct", plan.Direct, func(*relation.Table) *plan.Node { return plan.NewDistinct(plan.NewProject(win(0, 15), 0)) }},
		{"j-direct", plan.Direct, func(*relation.Table) *plan.Node { return plan.NewJoin(win(0, 15), win(2, 15), []int{0}, []int{0}) }},
		{"q6-upa", plan.UPA, func(*relation.Table) *plan.Node {
			return plan.NewGroupBy(win(2, 18), []int{0},
				operator.AggSpec{Kind: operator.Count}, operator.AggSpec{Kind: operator.Sum, Col: 2})
		}},
		{"rows", plan.UPA, func(*relation.Table) *plan.Node {
			src := plan.NewSource(2, window.Spec{Type: window.CountBased, Size: 10}, linkSchema())
			return plan.NewDistinct(plan.NewProject(src, 0))
		}},
		{"nrr-all", plan.UPA, func(tbl *relation.Table) *plan.Node { return plan.NewNRRJoin(win(0, 16), tbl, []int{0}, []int{0}) }},
		{"nrr-ftp", plan.UPA, func(tbl *relation.Table) *plan.Node {
			return plan.NewNRRJoin(ftp(win(0, 16)), tbl, []int{0}, []int{0})
		}},
		{"bare", plan.UPA, func(*relation.Table) *plan.Node { return win(1, 10) }},
	}
}

// diffRun is one registry of the differential test: its table and the
// OnEmit log of every query it ever registered, by name. A timed registry
// has a metrics registry attached.
type diffRun struct {
	e     *Engine
	tbl   *relation.Table
	procs int
	hs    map[string]*QueryHandle
	emits map[string]*strings.Builder
}

func newDiffRun(t *testing.T, procs int, timed bool) *diffRun {
	cfg := Config{LazyInterval: 5}
	if timed {
		cfg.Metrics = obs.NewRegistry()
	}
	r := &diffRun{
		e:     NewMulti(cfg),
		tbl:   relation.NewNRR("companies", companies()),
		procs: procs,
		hs:    map[string]*QueryHandle{},
		emits: map[string]*strings.Builder{},
	}
	for _, q := range diffQueries() {
		r.register(t, q.name, q)
	}
	return r
}

func (r *diffRun) register(t *testing.T, name string, q diffQuery) {
	t.Helper()
	log := r.emits[name]
	if log == nil {
		log = &strings.Builder{}
		r.emits[name] = log
	}
	h, err := r.e.RegisterQuery(QuerySpec{Name: name, Phys: buildPhys(t, q.build(r.tbl), q.strat, plan.Options{}),
		OnEmit: func(t tuple.Tuple) { fmt.Fprintln(log, t.String()) }})
	if err != nil {
		t.Fatal(err)
	}
	r.hs[name] = h
}

// render is everything the differential test compares: per-query emit
// logs, snapshots, operator counters and EXPLAIN ANALYZE without timings,
// engine stats, delta-latency counts when latency is set (an untimed
// registry records none) and the registry checkpoint.
func (r *diffRun) render(t *testing.T, latency bool) string {
	t.Helper()
	var b strings.Builder
	for _, h := range r.e.Queries() {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\nemits:\n%ssnapshot:\n%s", h.Name(), r.emits[h.Name()].String(), renderRows(rows))
		for _, p := range h.Profile() {
			p.ProcNanos = 0
			fmt.Fprintf(&b, "op %+v\n", p)
		}
		tree := h.Explain(true)
		tree.Walk(func(n *plan.ExplainNode) {
			if n.Stats != nil {
				n.Stats.ProcNanos = 0
			}
		})
		if err := tree.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if latency {
			pos, neg := h.DeltaLatency()
			fmt.Fprintf(&b, "latency counts %d %d\n", pos.Count, neg.Count)
		}
	}
	fmt.Fprintf(&b, "stats %+v sharing %+v\n", r.e.Stats(), r.e.Sharing())
	var ck bytes.Buffer
	if err := r.e.CheckpointRegistry(&ck); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "checkpoint %x\n", ck.Bytes())
	return b.String()
}

// compOf returns the component a registered query belongs to.
func compOf(e *Engine, h *QueryHandle) *component {
	for _, c := range e.comps {
		for _, q := range c.queries {
			if q == h.units[0] {
				return c
			}
		}
	}
	return nil
}

// TestParallelReplayMatchesInline drives one schedule into two registries,
// one replaying its tapes on four workers and one on the caller
// (GOMAXPROCS 1), with table updates, Advance gaps and register/unregister
// churn between batches; after every step everything observable must agree,
// checkpoint bytes included.
func TestParallelReplayMatchesInline(t *testing.T) {
	par, seq := newDiffRun(t, 4, true), newDiffRun(t, 1, true)
	if n := len(par.e.comps); n < 5 {
		t.Fatalf("%d components, want at least 5", n)
	}
	if compOf(par.e, par.hs["q1-lo"]) != compOf(par.e, par.hs["q1-hi"]) {
		t.Fatal("queries sharing a join landed in different components")
	}
	driveDiff(t, par, seq, true)
	withProcs(par.procs, func() {
		if !par.e.sharesReplay(true) {
			t.Fatal("the GOMAXPROCS 4 registry does not replay PushBatch on workers")
		}
	})
	withProcs(seq.procs, func() {
		if seq.e.sharesReplay(true) {
			t.Fatal("a GOMAXPROCS 1 registry replays on workers")
		}
	})
}

// TestParallelReplayTimed: sampled operator timing on a registry replayed on
// four workers changes nothing but ProcNanos. A timed registry and its
// untimed twin take the same schedule; their emit logs, snapshots, operator
// counters, EXPLAIN ANALYZE without timings, stats and checkpoint bytes must
// agree, and only the timed one may have charged processing time.
func TestParallelReplayTimed(t *testing.T) {
	timed, plain := newDiffRun(t, 4, true), newDiffRun(t, 4, false)
	if n := len(timed.e.comps); n < 3 {
		t.Fatalf("%d components, want at least 3", n)
	}
	driveDiff(t, timed, plain, false)
	withProcs(timed.procs, func() {
		if !timed.e.sharesReplay(true) {
			t.Fatal("the GOMAXPROCS 4 registry does not replay PushBatch on workers")
		}
	})
	procSum := func(r *diffRun) (n int64) {
		for _, h := range r.e.Queries() {
			for _, p := range h.Profile() {
				n += p.ProcNanos
			}
		}
		return n
	}
	if proc, plainProc := procSum(timed), procSum(plain); proc == 0 || plainProc != 0 {
		t.Fatalf("ProcNanos sums to %d timed and %d untimed, want > 0 and 0", proc, plainProc)
	}
}

// driveDiff drives one random schedule into two registries — batches,
// single pushes, table updates, Advance gaps and register/unregister churn —
// compares their renderings every ten steps and fails at the first
// difference.
func driveDiff(t *testing.T, a, b *diffRun, latency bool) {
	t.Helper()
	runs := []*diffRun{a, b}
	qs := diffQueries()
	rng := rand.New(rand.NewSource(31))
	ts := int64(0)
	var rows [][]tuple.Value
	step := func(name string, fn func(r *diffRun) error) {
		t.Helper()
		for _, r := range runs {
			var err error
			withProcs(r.procs, func() { err = fn(r) })
			if err != nil {
				t.Fatalf("%s on %d procs: %v", name, r.procs, err)
			}
		}
	}
	for i := 0; i < 60; i++ {
		streams := a.e.Streams()
		switch k := rng.Intn(10); {
		case k < 5:
			batch := make([]Arrival, 40+rng.Intn(60))
			for j := range batch {
				ts += int64(rng.Intn(2))
				batch[j] = Arrival{Stream: streams[rng.Intn(len(streams))], TS: ts, Vals: rndTuple(rng)}
			}
			step("PushBatch", func(r *diffRun) error { return r.e.PushBatch(batch) })
		case k == 5:
			u := relation.Update{Kind: relation.Insert, TS: ts, Row: []tuple.Value{tuple.Int(int64(rng.Intn(6))), tuple.String_(protos[rng.Intn(4)])}}
			if len(rows) > 0 && rng.Intn(2) == 0 {
				u = relation.Update{Kind: relation.Delete, TS: ts, Row: rows[0]}
				rows = rows[1:]
			} else {
				rows = append(rows, u.Row)
			}
			step("ApplyTableUpdate", func(r *diffRun) error { return r.e.ApplyTableUpdate(r.tbl, u) })
		case k == 6:
			ts += 10 + int64(rng.Intn(30))
			step("Advance", func(r *diffRun) error { return r.e.Advance(ts) })
		case k == 7 && len(a.hs) > 6:
			names := make([]string, 0, len(a.hs))
			for _, h := range a.e.Queries() {
				names = append(names, h.Name())
			}
			name := names[rng.Intn(len(names))]
			step("Unregister", func(r *diffRun) error {
				_, err := r.e.UnregisterQuery(r.hs[name])
				delete(r.hs, name)
				return err
			})
		case k == 8:
			q := qs[rng.Intn(len(qs))]
			name := fmt.Sprintf("%s-%d", q.name, i)
			step("Register", func(r *diffRun) error { r.register(t, name, q); return nil })
		default:
			ar := Arrival{Stream: streams[rng.Intn(len(streams))], TS: ts, Vals: rndTuple(rng)}
			step("Push", func(r *diffRun) error { return r.e.Push(ar.Stream, ar.TS, ar.Vals...) })
		}
		if i%10 == 9 {
			var got, want string
			withProcs(a.procs, func() { got = a.render(t, latency) })
			withProcs(b.procs, func() { want = b.render(t, latency) })
			if got != want {
				t.Fatalf("step %d: registries on %d and %d procs diverged\n%s", i, a.procs, b.procs, firstDiff(got, want))
			}
		}
	}
}

// firstDiff renders the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(g), len(w))
}

// TestParallelReplayPanicReraised: a subscriber that panics during a
// parallel replay panics the PushBatch caller with its own value, after
// every worker has finished.
func TestParallelReplayPanicReraised(t *testing.T) {
	withProcs(4, func() {
		e := NewMulti(Config{})
		var hs []*QueryHandle
		for i, q := range diffQueries()[:4] {
			h, err := e.RegisterQuery(QuerySpec{Name: q.name, Phys: buildPhys(t, q.build(nil), q.strat, plan.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				hs = append(hs, h)
			}
		}
		if len(e.comps) < 3 {
			t.Fatalf("%d components, want at least 3", len(e.comps))
		}
		type boom struct{ at int }
		calls := 0
		// The second component in claim order: the one a worker takes first.
		for _, h := range hs {
			if compOf(e, h) == e.comps[1] {
				h.SetOnEmit(func(tuple.Tuple) {
					if calls++; calls == 3 {
						panic(boom{calls})
					}
				})
			}
		}
		r := rand.New(rand.NewSource(5))
		batch := make([]Arrival, 200)
		for i := range batch {
			batch[i] = Arrival{Stream: i % 2, TS: int64(i / 4), Vals: rndTuple(r)}
		}
		base := runtime.NumGoroutine()
		got := func() (v any) {
			defer func() { v = recover() }()
			_ = e.PushBatch(batch)
			return nil
		}()
		if got != (boom{3}) {
			t.Fatalf("recovered %v, want the subscriber's own value", got)
		}
		if !e.sharesReplay(true) {
			t.Fatal("the batch did not replay on workers")
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestPushBatchRefusedRunFlushesPrefix: a PushBatch refused part-way
// charges the deltas of the runs it applied to this call's latency
// observation, records the call's wall time and samples state, like a
// successful call.
func TestPushBatchRefusedRunFlushesPrefix(t *testing.T) {
	e, err := New(buildPhys(t, plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 100}, linkSchema()), plan.UPA, plan.Options{}),
		Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	var batch []Arrival
	for i := 0; i < 10; i++ {
		batch = append(batch, Arrival{Stream: 0, TS: int64(10 + i), Vals: rndTuple(r)})
	}
	batch = append(batch, Arrival{Stream: 0, TS: 5, Vals: rndTuple(r)})
	if err := e.PushBatch(batch); err == nil || !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("PushBatch: %v, want a regression error", err)
	}
	st := e.Stats()
	if st.Arrivals != 10 || st.Emitted != 10 {
		t.Fatalf("stats %+v, want the 10 arrivals before the refused one applied", st)
	}
	if pos, _ := e.DeltaLatency(); pos.Count != st.Emitted {
		t.Errorf("delta latency count %d, want %d", pos.Count, st.Emitted)
	}
	if n := e.met.pushNanos.Snapshot().Count; n != 1 {
		t.Errorf("push latency count %d, want 1", n)
	}
	if st.MaxStateTuples == 0 {
		t.Error("state was not sampled")
	}
}

// mix16Plans is the query set of the benchmark's mix16-registry workload
// (benchmark/workloads.go) as logical plans: eight Query-1 variants sharing
// their select+join prefix, then Q2, Q3, Q4, Q6 under UPA (three via CQL),
// Q2, Q3 and Q6 under NT and Q2 under DIRECT.
func mix16Plans(t *testing.T, w int64) []*plan.Physical {
	src := func(link int, w int64) *plan.Node {
		return plan.NewSource(link, window.Spec{Type: window.TimeBased, Size: w}, trace.Schema())
	}
	ftp := func(link int) *plan.Node {
		return plan.NewSelect(src(link, w), operator.ColConst{Col: trace.ColProtocol, Op: operator.EQ,
			Val: tuple.String_("ftp"), Sel: trace.ProtocolShare("ftp")})
	}
	srcCol := []int{trace.ColSrc}
	q2 := func(link int, w int64) *plan.Node {
		return plan.NewDistinct(plan.NewProject(src(link, w), trace.ColSrc))
	}
	q6 := func(link int) *plan.Node {
		return plan.NewGroupBy(src(link, w), []int{trace.ColProtocol},
			operator.AggSpec{Kind: operator.Count}, operator.AggSpec{Kind: operator.Sum, Col: trace.ColPayload})
	}
	cat := cql.Catalog{Streams: map[string]cql.StreamDef{}}
	for i := 0; i < 3; i++ {
		cat.Streams[fmt.Sprintf("l%d", i)] = cql.StreamDef{ID: i, Schema: trace.Schema()}
	}
	parse := func(text string) *plan.Node {
		n, err := cql.Parse(text, cat)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	type q struct {
		root  *plan.Node
		strat plan.Strategy
	}
	var qs []q
	for i := int64(0); i < 8; i++ {
		j := plan.NewJoin(ftp(0), ftp(1), srcCol, srcCol)
		qs = append(qs, q{plan.NewSelect(j, operator.ColConst{Col: trace.ColPayload, Op: operator.GT, Val: tuple.Int(i * (1 << 13) / 8)}), plan.UPA})
	}
	qs = append(qs,
		q{parse(fmt.Sprintf("SELECT DISTINCT src FROM l2 [RANGE %d]", w)), plan.UPA},
		q{parse(fmt.Sprintf("SELECT * FROM l1 [RANGE %d] EXCEPT l2 [RANGE %d] ON src", w, w)), plan.UPA},
		q{plan.NewJoin(q2(0, w/500), q2(2, w/500), []int{0}, []int{0}), plan.UPA},
		q{parse(fmt.Sprintf("SELECT protocol, COUNT(*), SUM(payload) FROM l0 [RANGE %d] GROUP BY protocol", w)), plan.UPA},
		q{q2(1, w), plan.NT},
		q{plan.NewNegate(src(0, w), src(1, w), srcCol, srcCol), plan.NT},
		q{q6(2), plan.NT},
		q{q2(0, w/50), plan.Direct},
	)
	out := make([]*plan.Physical, len(qs))
	for i, q := range qs {
		out[i] = buildPhys(t, q.root, q.strat, plan.Options{})
	}
	return out
}

// TestParallelReplayMix16Components: the benchmark's sixteen-query registry
// is nine components — the eight Query-1 variants share a join, every other
// query is alone — and Sharing reports it.
func TestParallelReplayMix16Components(t *testing.T) {
	e := NewMulti(Config{})
	for i, phys := range mix16Plans(t, 5000) {
		if _, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("m%d", i), Phys: phys}); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Sharing(); s.Components != 9 {
		t.Fatalf("mix16 forms %d components, want 9", s.Components)
	}
	if n := len(e.comps[0].queries); n != 8 {
		t.Fatalf("heaviest component serves %d queries, want the 8 Query-1 variants", n)
	}
}

// TestParallelReplayAllocBudget: a steady-state PushBatch replayed on two
// workers allocates no more than the same registry's inline replay: the
// helper worker starts from a func value built once, not from a closure
// allocated per call. testing.AllocsPerRun pins GOMAXPROCS to 1, so the
// mallocs are counted directly.
func TestParallelReplayAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	perCall := func(procs int) (allocs float64, shared bool) {
		e := NewMulti(Config{})
		for _, q := range diffQueries()[:3] { // q1-lo, q1-hi (one join), q3-upa
			if _, err := e.RegisterQuery(QuerySpec{Name: q.name, Phys: buildPhys(t, q.build(nil), q.strat, plan.Options{})}); err != nil {
				t.Fatal(err)
			}
		}
		if len(e.comps) != 2 {
			t.Fatalf("%d components, want 2", len(e.comps))
		}
		r := rand.New(rand.NewSource(17))
		batch := make([]Arrival, 64)
		for i := range batch {
			batch[i].Vals = rndTuple(r)
		}
		base := int64(0)
		run := func() {
			for i := range batch {
				batch[i].Stream, batch[i].TS = i%2, base+int64(i/8)
			}
			base += 8
			if err := e.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		withProcs(procs, func() {
			shared = e.sharesReplay(true)
			for i := 0; i < 2000; i++ {
				run()
			}
			// A collection empties every P's Emit pool, and two workers
			// refill two; with collection off the count is the replay's own.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const runs = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / runs
		})
		return allocs, shared
	}
	serial, _ := perCall(1)
	par, shared := perCall(2)
	t.Logf("steady-state PushBatch(64): %.2f allocs inline, %.2f on two workers", serial, par)
	if !shared {
		t.Fatal("no PushBatch replayed on workers")
	}
	if par > serial+0.05 {
		t.Errorf("parallel replay: %.2f allocs per call, inline %.2f; budget is the same", par, serial)
	}
}

// TestParallelReplayOverlaps: on two processors the components of one
// PushBatch replay at the same time. Each of two bare-window queries blocks
// in its first callback until the other's first callback has started,
// which only a concurrent replay lets happen.
func TestParallelReplayOverlaps(t *testing.T) {
	withProcs(2, func() {
		e := NewMulti(Config{})
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		for i := range started {
			first := true
			src := plan.NewSource(i, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
			_, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("bare%d", i), Phys: buildPhys(t, src, plan.UPA, plan.Options{}),
				OnEmit: func(tuple.Tuple) {
					if !first {
						return
					}
					first = false
					close(started[i])
					select {
					case <-started[1-i]:
					case <-time.After(10 * time.Second):
						t.Errorf("bare%d's first callback never overlapped the other query's", i)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
		}
		// A second window on stream 0 keeps the registry off the columnar
		// chain, which replays on the caller.
		if _, err := e.RegisterQuery(QuerySpec{Name: "wide0", Phys: buildPhys(t,
			plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema()), plan.UPA, plan.Options{})}); err != nil {
			t.Fatal(err)
		}
		if !e.sharesReplay(true) {
			t.Fatalf("%d components, columnar %v: the registry would replay inline", len(e.comps), e.colOK)
		}
		r := rand.New(rand.NewSource(9))
		batch := make([]Arrival, 8)
		for i := range batch {
			batch[i] = Arrival{Stream: i % 2, TS: int64(i / 2), Vals: rndTuple(r)}
		}
		if err := e.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
}

// failOp wraps an operator so that it refuses every input run at or after
// time at, and records the time of the last run it processed.
type failOp struct {
	operator.Operator
	at, last int64
	err      error
}

func (f *failOp) ProcessBatch(side int, in []tuple.Tuple, now int64, out *operator.Emit) error {
	if now >= f.at {
		return f.err
	}
	f.last = now
	return f.Operator.ProcessBatch(side, in, now, out)
}

// TestParallelReplayOperatorError: when operators in two components fail
// during one PushBatch, the call returns the error that comes first in tape
// order, whichever component replays first. Each failing component stops
// at its own error, the other components replay the whole tape, and the
// window stage has admitted the whole batch. Inline and parallel replays
// agree.
func TestParallelReplayOperatorError(t *testing.T) {
	win := func(id int) *plan.Node {
		return plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: 12}, linkSchema())
	}
	for _, procs := range []int{1, 4} {
		for _, at := range [][2]int64{{20, 30}, {30, 20}} {
			withProcs(procs, func() {
				e := NewMulti(Config{})
				reg := func(name string, root *plan.Node) *QueryHandle {
					h, err := e.RegisterQuery(QuerySpec{Name: name, Phys: buildPhys(t, root, plan.UPA, plan.Options{})})
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				failing := []*QueryHandle{
					reg("neg", plan.NewNegate(win(0), win(1), []int{0}, []int{0})),
					reg("proj", plan.NewProject(win(2), 0, 2)),
				}
				// A wider window on stream 1 than the negation's keeps the
				// registry off the columnar chain.
				bare := reg("bare", plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema()))
				if len(e.comps) != 3 || e.colOK {
					t.Fatalf("%d components, columnar %v; want 3 on the row chain", len(e.comps), e.colOK)
				}
				var fails [2]*failOp
				for i, h := range failing {
					n := h.units[0].nodes[0]
					fails[i] = &failOp{Operator: n.op, at: at[i], last: -1, err: fmt.Errorf("%s fails at %d", h.Name(), at[i])}
					n.op = fails[i]
				}
				r := rand.New(rand.NewSource(13))
				batch := make([]Arrival, 300)
				for i := range batch {
					batch[i] = Arrival{Stream: i % 3, TS: int64(i / 6), Vals: rndTuple(r)}
				}
				want := fails[0].err
				if at[1] < at[0] {
					want = fails[1].err
				}
				if err := e.PushBatch(batch); err != want {
					t.Fatalf("procs %d: PushBatch returned %v, want %v", procs, err, want)
				}
				if st := e.Stats(); e.Clock() != 49 || st.Arrivals != 300 {
					t.Fatalf("procs %d: clock %d, %d arrivals; the window stage should have admitted the whole batch", procs, e.Clock(), st.Arrivals)
				}
				for i, f := range fails {
					if f.last != f.at-1 {
						t.Errorf("procs %d: %s last processed a run at %d, want %d, just before its own failure",
							procs, failing[i].Name(), f.last, f.at-1)
					}
				}
				rows, err := bare.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 || rows[len(rows)-1].TS != 49 {
					t.Errorf("procs %d: the bare window's view stops before the end of the batch:\n%s", procs, renderRows(rows))
				}
			})
		}
	}
}

// TestPushBatchBeyondTapeFlush: a PushBatch that stamps more than
// tapeFlushRows rows replays its tape part-way through, keeps the tape
// bounded, and leaves every query where one Push per arrival leaves it.
func TestPushBatchBeyondTapeFlush(t *testing.T) {
	batched, pushed := newDiffRun(t, 4, true), newDiffRun(t, 1, true)
	r := rand.New(rand.NewSource(41))
	streams := batched.e.Streams()
	batch := make([]Arrival, 6000)
	ts := int64(0)
	for i := range batch {
		ts += int64(r.Intn(2))
		batch[i] = Arrival{Stream: streams[r.Intn(len(streams))], TS: ts, Vals: rndTuple(r)}
	}
	withProcs(batched.procs, func() {
		if err := batched.e.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	withProcs(pushed.procs, func() {
		for _, a := range batch {
			if err := pushed.e.Push(a.Stream, a.TS, a.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	})
	// State is sampled per call, so the high-water marks of one call and
	// of 6 000 legitimately differ; both restart from the current state.
	for _, r := range []*diffRun{batched, pushed} {
		r.e.met.maxStateTuples.Set(0)
		r.e.sampleState()
	}
	if got, want := batched.render(t, true), pushed.render(t, true); got != want {
		t.Fatalf("one PushBatch diverged from one Push per arrival\n%s", firstDiff(got, want))
	}
	if n := cap(batched.e.tape.rows); n >= 2*tapeFlushRows {
		t.Fatalf("the tape grew to %d rows; it is replayed every %d", n, tapeFlushRows)
	}
}

// TestReplayedTapePinsNoArrival pushes arrivals that a selection drops and
// checks that, once they are replayed, no scratch of the row chain keeps
// their value arrays reachable: not the tape's rows, and on a partitioned engine
// not a component's staged rows either. Several rows share each timestamp,
// so a partition stages its share of a run.
func TestReplayedTapePinsNoArrival(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			// The group-by keys the partitions on column 0; it sees no row.
			root := plan.NewGroupBy(selPlan(50, "http"), []int{0}, operator.AggSpec{Kind: operator.Count})
			phys := buildPhys(t, root, plan.UPA, plan.Options{})
			e, fallback, err := Open(QuerySpec{Phys: phys}, Config{NoColumnar: true}, parts)
			if err != nil || fallback != "" {
				t.Fatalf("open: %v %s", err, fallback)
			}
			defer e.Close()
			const n = 300
			refs := pushDropped(t, e, n)
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			live := 0
			for _, r := range refs {
				if r.Value() != nil {
					live++
				}
			}
			if live > 0 {
				t.Fatalf("%d of %d replayed arrivals' values are still reachable", live, n)
			}
		})
	}
}

// pushDropped pushes n arrivals that no query keeps, four to a timestamp,
// and returns weak pointers to their value arrays. It keeps no strong
// reference of its own.
func pushDropped(t *testing.T, e *Engine, n int) []weak.Pointer[tuple.Value] {
	refs := make([]weak.Pointer[tuple.Value], n)
	batch := make([]Arrival, n)
	for i := range batch {
		vals := []tuple.Value{tuple.Int(int64(i)), tuple.String_("ftp"), tuple.Int(int64(i))}
		refs[i] = weak.Make(&vals[0])
		batch[i] = Arrival{Stream: 0, TS: int64(1 + i/4), Vals: vals}
	}
	if err := e.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	return refs
}
