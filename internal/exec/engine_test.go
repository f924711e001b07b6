package exec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

func buildEngine(t *testing.T, root *plan.Node, s plan.Strategy, cfg Config) *Engine {
	t.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(phys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func simpleSelect(windowSize int64) *plan.Node {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: windowSize}, linkSchema())
	return plan.NewSelect(src, operator.True{})
}

func TestEngineTimestampRegressionRejected(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.UPA, Config{})
	if err := eng.Push(0, 10, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(0, 5, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err == nil {
		t.Error("timestamp regression accepted")
	}
	if err := eng.Advance(3); err == nil {
		t.Error("time regression accepted")
	}
	if eng.Clock() != 10 {
		t.Errorf("clock = %d", eng.Clock())
	}
}

func TestEngineUnknownStream(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.UPA, Config{})
	if err := eng.Push(9, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestEngineSyncBeforeAnyEvent(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.UPA, Config{})
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if rows, err := eng.Queries()[0].Snapshot(); err != nil || len(rows) != 0 {
		t.Errorf("empty engine snapshot: %v %v", rows, err)
	}
}

func TestEngineLazyIntervalDelaysTrim(t *testing.T) {
	// With a large lazy interval, view expiration waits for the next lazy
	// tick; Sync forces it.
	eng := buildEngine(t, simpleSelect(10), plan.UPA, Config{LazyInterval: 1000})
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	eng.Advance(50) // tuple expired at 11, but lazy tick hasn't come
	if eng.Queries()[0].View().Len() != 1 {
		t.Fatalf("lazy view trimmed early: %d", eng.Queries()[0].View().Len())
	}
	if n, err := eng.Queries()[0].ResultCount(); err != nil || n != 0 {
		t.Fatalf("Sync must force expiry: %d %v", n, err)
	}
}

// A Sync with nothing new since the last one runs no pass, so reading the
// answer twice leaves the same counters (and checkpoint) as reading it once.
func TestSyncIsIdempotent(t *testing.T) {
	eng := buildEngine(t, joinPlan(30), plan.UPA, Config{})
	feed(t, eng, ckptTrace(2)[:128])
	read := func() (touched, eager, lazy int64) {
		t.Helper()
		touched, err := eng.Touched()
		if err != nil {
			t.Fatal(err)
		}
		return touched, eng.met.eagerPasses.Value(), eng.met.lazyPasses.Value()
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	touched, eager, lazy := read()
	for i := 0; i < 2; i++ {
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if t2, e2, l2 := read(); t2 != touched || e2 != eager || l2 != lazy {
		t.Errorf("two more Syncs moved touches %d → %d, eager passes %d → %d, lazy passes %d → %d",
			touched, t2, eager, e2, lazy, l2)
	}
	// Anything new makes the next Sync run its passes again.
	if err := eng.Advance(200); err != nil {
		t.Fatal(err)
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, e2, l2 := read(); e2 == eager || l2 == lazy {
		t.Errorf("a Sync after Advance ran no pass: eager %d → %d, lazy %d → %d", eager, e2, lazy, l2)
	}
}

func TestEngineTableUpdateValidation(t *testing.T) {
	tbl := relation.NewNRR("t", tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt}))
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	root := plan.NewNRRJoin(src, tbl, []int{0}, []int{0})
	eng := buildEngine(t, root, plan.UPA, Config{})
	if err := eng.Push(0, 10, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Update in the past is rejected.
	if err := eng.ApplyTableUpdate(tbl, relation.Update{Kind: relation.Insert, TS: 5, Row: []tuple.Value{tuple.Int(1)}}); err == nil {
		t.Error("past table update accepted")
	}
	// Invalid update (delete of absent row) surfaces the table's error.
	if err := eng.ApplyTableUpdate(tbl, relation.Update{Kind: relation.Delete, TS: 11, Row: []tuple.Value{tuple.Int(9)}}); err == nil {
		t.Error("bad delete accepted")
	}
}

func TestEngineStatsAndStateTuples(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.NT, Config{})
	for ts := int64(0); ts < 100; ts++ {
		if err := eng.Push(0, ts, tuple.Int(ts%5), tuple.String_("a"), tuple.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Arrivals != 100 {
		t.Errorf("arrivals = %d", st.Arrivals)
	}
	if st.WindowNegatives == 0 {
		t.Error("NT should have generated window negatives")
	}
	if st.MaxStateTuples == 0 {
		t.Error("state never sampled")
	}
	if eng.stateTuples() == 0 {
		t.Error("state tuples should include the window and view")
	}
	if eng.touched() == 0 {
		t.Error("touched should be counted")
	}
}

func TestEngineOnEmitObservesRetractions(t *testing.T) {
	var pos, neg int
	src0 := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	src1 := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	root := plan.NewNegate(src0, src1, []int{0}, []int{0})
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{STR: plan.STRPartitioned})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(phys, Config{OnEmit: func(tp tuple.Tuple) {
		if tp.Neg {
			neg++
		} else {
			pos++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	eng.Push(1, 2, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	if pos != 1 || neg != 1 {
		t.Errorf("OnEmit saw pos=%d neg=%d", pos, neg)
	}
	st := eng.Stats()
	if st.Emitted != 1 || st.Retracted != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEngineEagerIntervalBatchesExpiry(t *testing.T) {
	// Eager interval larger than one time unit: expiration emissions wait
	// for the next eager tick (or a Sync).
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
	root := plan.NewGroupBy(src, []int{1}, operator.AggSpec{Kind: operator.Count})
	eng := buildEngine(t, root, plan.UPA, Config{EagerInterval: 100, LazyInterval: 100})
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	eng.Advance(50)
	// With the huge eager interval nothing ticked yet; Sync settles it.
	if n, err := eng.Queries()[0].ResultCount(); err != nil || n != 0 {
		t.Fatalf("after sync: %d %v", n, err)
	}
}

// TestEngineExpirationsWithoutArrivals replays Section 2.3's motivating
// scenario: a materialized sliding-window aggregate must change when tuples
// expire even though nothing new arrives.
func TestEngineExpirationsWithoutArrivals(t *testing.T) {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
	root := plan.NewGroupBy(src, []int{1}, operator.AggSpec{Kind: operator.Count})
	for _, s := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
		eng := buildEngine(t, root.Clone(), s, Config{})
		eng.Push(0, 1, tuple.Int(1), tuple.String_("ftp"), tuple.Int(1))
		eng.Push(0, 5, tuple.Int(2), tuple.String_("ftp"), tuple.Int(1))
		if n, _ := eng.Queries()[0].ResultCount(); n != 1 {
			t.Fatalf("%v: one group expected", s)
		}
		rows, _ := eng.Queries()[0].Snapshot()
		if !rows[0].Vals[1].Identical(tuple.Int(2)) {
			t.Fatalf("%v: count = %v", s, rows[0].Vals[1])
		}
		// Quiet period: the first tuple expires at 11.
		if err := eng.Advance(11); err != nil {
			t.Fatal(err)
		}
		rows, _ = eng.Queries()[0].Snapshot()
		if len(rows) != 1 || !rows[0].Vals[1].Identical(tuple.Int(1)) {
			t.Fatalf("%v: after quiet expiry rows = %v", s, rows)
		}
		// Group vanishes entirely at 15.
		if err := eng.Advance(20); err != nil {
			t.Fatal(err)
		}
		if n, _ := eng.Queries()[0].ResultCount(); n != 0 {
			t.Fatalf("%v: group should vanish", s)
		}
	}
}

func TestProfile(t *testing.T) {
	src0 := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	src1 := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	root := plan.NewSelect(plan.NewNegate(src0, src1, []int{0}, []int{0}), operator.True{})
	eng := buildEngine(t, root, plan.UPA, Config{})
	eng.Push(0, 1, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	eng.Push(1, 2, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	profs := eng.Queries()[0].Profile()
	if len(profs) != 2 || profs[0].Class != "select" || profs[1].Class != "negate" {
		t.Fatalf("profiles: %+v", profs)
	}
	if profs[1].Emitted != 1 || profs[1].Retracted != 1 {
		t.Errorf("negate profile: %+v", profs[1])
	}
	if profs[1].Pattern != "STR" || profs[1].Depth != 1 {
		t.Errorf("negate annotation: %+v", profs[1])
	}
	var buf bytes.Buffer
	if err := eng.Queries()[0].WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"operator", "negate", "STR", "retracted"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("profile output missing %q:\n%s", want, buf.String())
		}
	}
	// Bare window plan.
	bare := buildEngine(t, plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema()), plan.UPA, Config{})
	buf.Reset()
	if err := bare.Queries()[0].WriteProfile(&buf); err != nil || !strings.Contains(buf.String(), "bare window") {
		t.Errorf("bare profile: %q %v", buf.String(), err)
	}
}

// TestExpirationOverflowRefused: a time-based window stamps Exp = ts + Size,
// so an arrival at ts >= NeverExpires - Size would wrap its Exp into the past
// and leave the answer at the next pass. Every entry point refuses it the way
// it refuses a regressing timestamp: before the clock or the arrival counter
// move and before the run reaches the tape, so the engine matches a twin that
// never saw it, and a PushBatch keeps the runs before the refused one. The
// last timestamp that fits is admitted and stays in the answer.
func TestExpirationOverflowRefused(t *testing.T) {
	q1 := ckptQueries()[0] // ftp-selects over windows of 20 on streams 0 and 1, joined
	const size = 20
	pushEach := func(e *Engine, batch []Arrival) error {
		for _, a := range batch {
			if err := e.Push(a.Stream, a.TS, a.Vals...); err != nil {
				return err
			}
		}
		return nil
	}
	pushBatch := func(e *Engine, batch []Arrival) error { return e.PushBatch(batch) }
	for _, c := range []struct {
		name     string
		cfg      Config
		shards   int
		columnar bool
		deliver  func(*Engine, []Arrival) error
	}{
		{"Push", Config{}, 1, true, pushEach},
		{"PushBatch/row", Config{NoColumnar: true}, 1, false, pushBatch},
		{"PushBatch/columnar", Config{}, 1, true, pushBatch},
		{"2-shards/PushBatch", Config{}, 2, false, pushBatch},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := openQuery(t, q1, plan.UPA, plan.Options{}, c.cfg, c.shards)
			twin := openQuery(t, q1, plan.UPA, plan.Options{}, c.cfg, c.shards)
			batchFeed(t, eng, colTrace(2, 40))
			batchFeed(t, twin, colTrace(2, 40))
			if c.shards == 1 && eng.Columnar() != c.columnar {
				t.Fatalf("Columnar() = %v, want %v", eng.Columnar(), c.columnar)
			}
			vals := []tuple.Value{tuple.Int(7), tuple.String_("ftp"), tuple.Int(9)}
			over := tuple.NeverExpires - size
			want := fmt.Sprintf("exec: timestamp %d plus window size %d overflows the expiration time", over, size)
			clock := eng.Clock()
			for _, batch := range [][]Arrival{
				{{Stream: 0, TS: over, Vals: vals}},
				{{Stream: 1, TS: clock, Vals: vals}, {Stream: 0, TS: over, Vals: vals}},
			} {
				accepted := len(batch) - 1
				arrivals := eng.met.arrivals.Value()
				if err := c.deliver(eng, batch); err == nil || err.Error() != want {
					t.Fatalf("arrival at %d: error %v, want %q", over, err, want)
				}
				if got := eng.Clock(); got != clock {
					t.Errorf("Clock() = %d after the refusal, want %d", got, clock)
				}
				if got := eng.met.arrivals.Value(); got != arrivals+int64(accepted) {
					t.Errorf("arrivals = %d after the refusal, want %d", got, arrivals+int64(accepted))
				}
				if err := c.deliver(twin, batch[:accepted]); err != nil {
					t.Fatal(err)
				}
				diffObservations(t, want, observeNoAdvance(t, eng), observeNoAdvance(t, twin))
			}
			if c.shards == 1 && eng.Columnar() != c.columnar {
				t.Errorf("the refusal changed Columnar() to %v", eng.Columnar())
			}
			last := over - 1
			if err := c.deliver(eng, []Arrival{{Stream: 0, TS: last, Vals: vals}, {Stream: 1, TS: last, Vals: vals}}); err != nil {
				t.Fatalf("arrival at %d: %v", last, err)
			}
			if err := eng.Advance(last + size - 1); err != nil {
				t.Fatal(err)
			}
			snap, err := eng.Queries()[0].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap) != 1 || snap[0].Exp != tuple.NeverExpires-1 {
				t.Errorf("answer after Advance(%d): %v, want the one join of the last arrivals, expiring at %d", last+size-1, snap, tuple.NeverExpires-1)
			}
		})
	}
}

// TestEntryPointsRejectAndDemoteAlike: validation, arrival counting and the
// columnar-demotion check live in one place (ingestRun), so every way an
// arrival can enter — Push, PushBatch, either of them on a plan that windows
// one stream twice — rejects a regressing timestamp, one whose window
// expiration would overflow and an unknown stream with the same error text
// and no change to engine state, and takes a
// kind-nonconforming tuple with the same outcome: accepted, Columnar() false
// from then on, visible state equal to an engine that never ran columnar.
// Advance rejects a regressing time the same way, in its own words, and
// ApplyTableUpdate an update its table refuses, in the table's.
func TestEntryPointsRejectAndDemoteAlike(t *testing.T) {
	q1 := ckptQueries()[0].build // join of ftp-selects over streams 0 and 1
	selfJoin := func() *plan.Node {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
		b := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
		return plan.NewJoin(a, b, []int{0}, []int{0})
	}
	push := func(e *Engine, a Arrival) error { return e.Push(a.Stream, a.TS, a.Vals...) }
	pushBatch := func(e *Engine, a Arrival) error { return e.PushBatch([]Arrival{a}) }
	cases := []struct {
		name     string
		build    func() *plan.Node
		streams  int
		size     int64 // stream 0's window
		columnar bool
		deliver  func(*Engine, Arrival) error
	}{
		{"Push", q1, 2, 20, true, push},
		{"PushBatch", q1, 2, 20, true, pushBatch},
		{"several-windows/Push", selfJoin, 1, 25, false, push},
		{"several-windows/PushBatch", selfJoin, 1, 25, false, pushBatch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := buildEngine(t, c.build(), plan.UPA, Config{LazyInterval: 7})
			twin := buildEngine(t, c.build(), plan.UPA, Config{LazyInterval: 7, NoColumnar: true})
			trace := colTrace(c.streams, 120)
			batchFeed(t, eng, trace[:80])
			batchFeed(t, twin, trace[:80])
			if eng.Columnar() != c.columnar {
				t.Fatalf("Columnar() = %v before the bad tuple, want %v", eng.Columnar(), c.columnar)
			}

			clock := eng.Clock()
			good := trace[0].Vals
			rejected := []struct {
				call func() error
				want string
			}{
				{func() error { return c.deliver(eng, Arrival{Stream: 0, TS: clock - 1, Vals: good}) },
					fmt.Sprintf("exec: timestamp %d regresses before %d", clock-1, clock)},
				{func() error { return c.deliver(eng, Arrival{Stream: 9, TS: clock + 1, Vals: good}) },
					"exec: no source for stream 9"},
				{func() error { return c.deliver(eng, Arrival{Stream: 0, TS: tuple.NeverExpires - c.size, Vals: good}) },
					fmt.Sprintf("exec: timestamp %d plus window size %d overflows the expiration time", tuple.NeverExpires-c.size, c.size)},
				{func() error { return eng.Advance(clock - 1) },
					fmt.Sprintf("exec: time %d regresses before %d", clock-1, clock)},
			}
			before, stateBefore := observeNoAdvance(t, eng), eng.stateTuples()
			for _, r := range rejected {
				if err := r.call(); err == nil || err.Error() != r.want {
					t.Errorf("rejected call: error %v, want %q", err, r.want)
				}
				diffObservations(t, r.want, observeNoAdvance(t, eng), before)
				if got := eng.stateTuples(); got != stateBefore {
					t.Errorf("%s: StateTuples = %d, want %d", r.want, got, stateBefore)
				}
				if eng.Columnar() != c.columnar {
					t.Errorf("%s: rejected call changed Columnar()", r.want)
				}
			}

			// A Float where the schema says Int: canonical keys make Float(3)
			// and Int(3) the same value downstream, so the row chain digests
			// it — only the columnar layout must refuse it.
			bad := Arrival{Stream: 0, TS: clock, Vals: []tuple.Value{tuple.Float(3), tuple.String_("ftp"), tuple.Int(9)}}
			for _, e := range []*Engine{eng, twin} {
				if err := c.deliver(e, bad); err != nil {
					t.Fatalf("kind-nonconforming tuple: %v", err)
				}
			}
			if eng.Columnar() {
				t.Error("Columnar() still true after a kind-nonconforming tuple")
			}
			batchFeed(t, eng, trace[80:])
			batchFeed(t, twin, trace[80:])
			diffObservations(t, "after the bad tuple vs row twin", observe(t, eng), observe(t, twin))
		})
	}

	// The two-partition column: the engine refuses before stamping, in the
	// same words and with nothing moved — its clock included, so an arrival
	// older than the refused one is still admitted and Sync takes no
	// partition past a time no accepted tuple carried.
	for _, c := range []struct {
		name    string
		deliver func(*Engine, Arrival) error
	}{
		{"2-shards/Push", func(ex *Engine, a Arrival) error { return ex.Push(a.Stream, a.TS, a.Vals...) }},
		{"2-shards/PushBatch", func(ex *Engine, a Arrival) error { return ex.PushBatch([]Arrival{a}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			sh := openQuery(t, ckptQueries()[0], plan.UPA, plan.Options{}, Config{LazyInterval: 7}, 2)
			trace := colTrace(2, 120)
			batchFeed(t, sh, trace[:80])
			clock := sh.Clock()
			good := trace[0].Vals
			for _, r := range []struct {
				err  error
				want string
			}{
				{c.deliver(sh, Arrival{Stream: 9, TS: clock + 5, Vals: good}), "exec: no source for stream 9"},
				{c.deliver(sh, Arrival{Stream: 0, TS: clock - 1, Vals: good}),
					fmt.Sprintf("exec: timestamp %d regresses before %d", clock-1, clock)},
				{sh.Advance(clock - 1), fmt.Sprintf("exec: time %d regresses before %d", clock-1, clock)},
			} {
				if r.err == nil || r.err.Error() != r.want {
					t.Errorf("rejected call: error %v, want %q", r.err, r.want)
				}
				if got := sh.Clock(); got != clock {
					t.Fatalf("%s: Clock() = %d after the rejected call, want %d", r.want, got, clock)
				}
			}
			if err := c.deliver(sh, Arrival{Stream: 0, TS: clock + 1, Vals: good}); err != nil {
				t.Fatalf("arrival at %d after a refused one at %d: %v", clock+1, clock+5, err)
			}
			if err := sh.Sync(); err != nil {
				t.Fatal(err)
			}
			if sh.Clock() != clock+1 || sh.Watermark() != clock+1 {
				t.Errorf("after Sync: clock %d, watermark %d, want both %d", sh.Clock(), sh.Watermark(), clock+1)
			}
		})
	}

	// A table update the table refuses moves nothing either, at one shard
	// and at three: it is checked before the executor advances to its time,
	// which is past every window here, so nothing expires.
	for _, shards := range []int{1, 3} {
		for _, p := range contractPlans()[3:] { // the table plans
			t.Run(fmt.Sprintf("table-update/%s/shards=%d", p.name, shards), func(t *testing.T) {
				c := openContract(t, p, plan.UPA, shards)
				c.play(t, contractSteps(p)[:contractCut])
				clock := c.ex.Clock()
				before := observeNoAdvance(t, c.ex)
				stateBefore, _ := c.ex.StateTuples()
				for _, r := range []struct {
					u    relation.Update
					want string
				}{
					{relation.Update{Kind: relation.Delete, TS: clock + 60, Row: []tuple.Value{tuple.Int(1), tuple.String_("w")}},
						"relation companies: delete of absent row [1 w]"},
					{relation.Update{Kind: relation.Insert, TS: clock + 60, Row: []tuple.Value{tuple.Int(1)}},
						"relation companies: row arity 1 != schema 2"},
				} {
					if err := c.ex.ApplyTableUpdate(c.tbl, r.u); err == nil || err.Error() != r.want {
						t.Errorf("refused update: error %v, want %q", err, r.want)
					}
					if got := c.ex.Clock(); got != clock {
						t.Errorf("%s: Clock() = %d, want %d", r.want, got, clock)
					}
					diffObservations(t, r.want, observeNoAdvance(t, c.ex), before)
					if got, _ := c.ex.StateTuples(); got != stateBefore {
						t.Errorf("%s: StateTuples = %d, want %d", r.want, got, stateBefore)
					}
				}
			})
		}
	}
}
