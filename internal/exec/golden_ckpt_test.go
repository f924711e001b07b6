package exec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/race"
	"repro/internal/tuple"
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
// buffers. The intersections are 4a2a3e9's, before negation and intersection
// filed slab entries in their calendars: under NT that commit's intersection
// filed every support in calendars it never expired. The DIRECT ones are
// 5c9fe3b's, before the list moved onto the FIFO's paged deque: Q1's join
// sides, Q2's distinct input and representative index, and both views are
// lists.
//
// columnar is whether the plan qualifies for the columnar path at this
// commit. Parent engines wrote q4_upa, q5_upa, q5_pullup, q4_nt and q2_direct
// with colOK set; their δ, negation, projection and Distinct kernels and NT's
// columnar window admission are gone, so they restore onto the row chain.
// The q1_direct plan keeps every kernel it ran.
//
// parentBytes marks a cut that this commit writes byte for byte, except that
// a cut colOK marks one whose final byte, the colOK flag, the parent wrote as
// 1 and this commit writes as 0. tieBroken
// marks one whose writer, before the cut, took W1 twins with equal TS out of
// the answer in admission order rather than arrival order (the Q5 join emits
// such twins at one TS): its counters hold one retraction the suffix rule
// makes at another time, so from the cut on the runs must agree on what they
// emit, not on the totals.
type goldenCheckpoint struct {
	file        string
	q           ckptQuery
	strat       plan.Strategy
	opts        plan.Options
	shards      int
	columnar    bool
	parentBytes bool
	cutColOK    bool
	tieBroken   bool
}

func goldenCheckpoints() []goldenCheckpoint {
	qs := ckptQueries()
	q4, q5, q5up := qs[3], qs[4], q5PullUpQuery()
	isect := ckptQuery{"intersection", 2, func() *plan.Node {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
		b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 22}, linkSchema())
		return plan.NewIntersect(plan.NewProject(a, 0), plan.NewProject(b, 0))
	}}
	return []goldenCheckpoint{
		{file: "q4_upa.ckpt", q: q4, strat: plan.UPA, shards: 1},
		{file: "q4_upa_shards2.ckpt", q: q4, strat: plan.UPA, shards: 2},
		{file: "q5_upa.ckpt", q: q5, strat: plan.UPA, shards: 1},
		{file: "q5_pullup_upa_strpartitioned.ckpt", q: q5up, strat: plan.UPA, opts: plan.Options{STR: plan.STRPartitioned}, shards: 1, tieBroken: true},
		{file: "q4_nt.ckpt", q: q4, strat: plan.NT, shards: 1, parentBytes: true, cutColOK: true},
		{file: "intersect_upa.ckpt", q: isect, strat: plan.UPA, shards: 1},
		{file: "intersect_nt.ckpt", q: isect, strat: plan.NT, shards: 1},
		{file: "q1_direct.ckpt", q: qs[0], strat: plan.Direct, shards: 1, columnar: true, parentBytes: true},
		{file: "q2_direct.ckpt", q: qs[1], strat: plan.Direct, shards: 1, parentBytes: true, cutColOK: true},
	}
}

// q5PullUpQuery is Q5 with the negation pulled above the join. Under UPA
// with plan.STRPartitioned its result view is a keyed calendar that the
// negation's retractions remove from.
func q5PullUpQuery() ckptQuery {
	return ckptQuery{"Q5-negation-pulled-up", 3, func() *plan.Node {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
		b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
		c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
		return plan.NewNegate(plan.NewJoin(a, c, []int{0}, []int{0}), b, []int{0}, []int{0})
	}}
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
			fresh := resumed.Columnar()
			if err := resumed.Restore(bytes.NewReader(ckpt)); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got := resumed.Columnar(); got != fresh || got != g.columnar {
				t.Errorf("restored Columnar() = %v, a fresh engine's %v, want %v", got, fresh, g.columnar)
			}
			atCut := resumed.Stats()
			feed(t, resumed, trace[128:])
			got := observe(t, resumed)
			cut := buildExecutorOpts(t, g.q, g.strat, g.opts, g.shards)
			feed(t, cut, trace[:128])
			if g.parentBytes {
				// Nothing here has changed its layout or its cost accounting
				// since: the cut is the parent's, byte for byte, but for a
				// colOK flag this commit's plan check clears.
				want := ckpt
				if g.cutColOK {
					if ckpt[len(ckpt)-1] != 1 {
						t.Fatalf("the parent's final byte is %d, not a set colOK flag", ckpt[len(ckpt)-1])
					}
					want = append(bytes.Clone(ckpt[:len(ckpt)-1]), 0)
				}
				sameBytes(t, "an executor fed the parent's prefix", cut, want)
			}
			if err := cut.Sync(); err != nil {
				t.Fatal(err)
			}
			cutStats := cut.Stats()
			if g.shards > 1 {
				// Sampled at batch granularity; see TestCheckpointRestoreEquivalence.
				atCut.MaxStateTuples, cutStats.MaxStateTuples = 0, 0
			}
			// Save → load → save is a fixed point from the parent's state too.
			var saved bytes.Buffer
			if err := resumed.Queries()[0].Checkpoint(&saved); err != nil {
				t.Fatal(err)
			}
			reloaded := buildExecutorOpts(t, g.q, g.strat, g.opts, g.shards)
			if err := reloaded.Restore(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "a reload of the resumed executor", reloaded, saved.Bytes())
			if g.strat == plan.NT && g.q.name == "intersection" {
				// The supports the parent filed under NT are not read back.
				var again bytes.Buffer
				if err := resumed.Queries()[0].Checkpoint(&again); err != nil {
					t.Fatal(err)
				}
				if again.Len() >= len(ckpt) {
					t.Errorf("resumed NT intersection checkpoints %d bytes, the parent's %d: its calendar entries came back", again.Len(), len(ckpt))
				}
			}
			if g.tieBroken {
				// Compare what each run emitted from the cut on.
				for _, s := range []*Stats{&got.stats, &want.stats} {
					at := atCut
					if s == &want.stats {
						at = cutStats
					}
					s.Emitted -= at.Emitted
					s.Retracted -= at.Retracted
				}
			} else if atCut != cutStats {
				t.Errorf("restored counters %+v, an executor fed the prefix %+v", atCut, cutStats)
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

	// The registry golden is pinned by its parentBytes rule alone.
	t.Run("registry_mix.ckpt", restoreRegistryGolden)
	t.Run("registry_one.ckpt", restoreRegistryOneGolden)
}

// registryGoldenQuery is one query of the registry that wrote
// registry_mix.ckpt.
type registryGoldenQuery struct {
	name  string
	strat plan.Strategy
	build func() *plan.Node
}

// registryGoldenQueries mixes NT and UPA: sel-http reads the stream-0 window
// of both UPA joins, join70 shares join20's join and both its windows, and
// join30-nt shares sel-ftp-nt's materialized window.
func registryGoldenQueries() []registryGoldenQuery {
	return []registryGoldenQuery{
		{"sel-http", plan.UPA, func() *plan.Node { return selPlan(40, "http") }},
		{"join20", plan.UPA, func() *plan.Node { return joinPlan(20) }},
		{"join70", plan.UPA, func() *plan.Node { return joinPlan(70) }},
		{"sel-ftp-nt", plan.NT, func() *plan.Node { return selPlan(40, "ftp") }},
		{"join30-nt", plan.NT, func() *plan.Node { return joinPlan(30) }},
		{"gb", plan.UPA, gbPlan},
	}
}

// registryGoldenCut is the arrival of ckptTrace(2) at which 267a2c3 wrote
// registry_mix.ckpt.
const registryGoldenCut = 128

// newRegistryGolden registers registryGoldenQueries on a fresh registry.
func newRegistryGolden(t *testing.T) (*Engine, []*QueryHandle) {
	t.Helper()
	e := NewMulti(Config{LazyInterval: 7, EagerInterval: 1})
	var hs []*QueryHandle
	for _, g := range registryGoldenQueries() {
		h, err := e.RegisterQuery(QuerySpec{Name: g.name, Phys: buildPhys(t, g.build(), g.strat, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return e, hs
}

// observeRegistry finalizes a registry run like observe and renders every
// query's answer, sorted, with the engine-wide counters.
func observeRegistry(t *testing.T, e *Engine, hs []*QueryHandle) string {
	t.Helper()
	if err := e.Advance(400); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, h := range hs {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, 0, len(rows))
		for _, r := range rows {
			strs = append(strs, r.String())
		}
		sort.Strings(strs)
		fmt.Fprintf(&b, "%s: %s\n", h.Name(), strings.Join(strs, " "))
	}
	fmt.Fprintf(&b, "%+v clock %d watermark %d\n", e.Stats(), e.Clock(), e.Watermark())
	return b.String()
}

// restoreRegistryGolden pins the registry layout: a registry fed the golden
// prefix writes 267a2c3's registry_mix.ckpt byte for byte, and a registry
// restored from it ends where an uninterrupted one does.
func restoreRegistryGolden(t *testing.T) {
	ckpt, err := os.ReadFile("testdata/registry_mix.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	trace := ckptTrace(2)
	cut, _ := newRegistryGolden(t)
	feed(t, cut, trace[:registryGoldenCut])
	var got bytes.Buffer
	if err := cut.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ckpt) {
		t.Errorf("a registry fed the parent's prefix checkpoints %d bytes, not the parent's %d", got.Len(), len(ckpt))
	}

	whole, wholeHs := newRegistryGolden(t)
	feed(t, whole, trace)
	resumed, resumedHs := newRegistryGolden(t)
	if err := resumed.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	feed(t, resumed, trace[registryGoldenCut:])
	if got, want := observeRegistry(t, resumed, resumedHs), observeRegistry(t, whole, wholeHs); got != want {
		t.Errorf("restored from the parent's registry checkpoint\ngot:\n%swant:\n%s", got, want)
	}
}

// restoreRegistryOneGolden pins the header switch: a90a5c8 wrote
// registry_one.ckpt with the registry header from a registry holding one
// named query, NT join30-nt, at registryGoldenCut of ckptTrace(2). A
// one-query engine now writes the standalone layout, the bytes its query's
// handle writes, and still restores the registry header to the state an
// uninterrupted run reaches.
func restoreRegistryOneGolden(t *testing.T) {
	ckpt, err := os.ReadFile("testdata/registry_one.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Engine, []*QueryHandle) { return newRegistryOne(t) }
	trace := ckptTrace(2)
	cut, cutHs := build()
	feed(t, cut, trace[:registryGoldenCut])
	var own, extracted bytes.Buffer
	if err := cut.Checkpoint(&own); err != nil {
		t.Fatal(err)
	}
	if err := cutHs[0].Checkpoint(&extracted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own.Bytes(), extracted.Bytes()) || bytes.Equal(own.Bytes(), ckpt) {
		t.Error("a one-query registry does not write its query's standalone checkpoint")
	}

	whole, wholeHs := build()
	feed(t, whole, trace)
	want := observeRegistry(t, whole, wholeHs)
	for name, b := range map[string][]byte{"the parent's registry header": ckpt, "the standalone layout": own.Bytes()} {
		resumed, resumedHs := build()
		if err := resumed.Restore(bytes.NewReader(b)); err != nil {
			t.Fatalf("Restore of %s: %v", name, err)
		}
		feed(t, resumed, trace[registryGoldenCut:])
		if got := observeRegistry(t, resumed, resumedHs); got != want {
			t.Errorf("restored from %s\ngot:\n%swant:\n%s", name, got, want)
		}
	}
}

// newRegistryOne registers join30-nt, under NT, on a fresh registry: the
// one-query registry that wrote registry_one.ckpt.
func newRegistryOne(t *testing.T) (*Engine, []*QueryHandle) {
	t.Helper()
	e := NewMulti(Config{LazyInterval: 7, EagerInterval: 1})
	h, err := e.RegisterQuery(QuerySpec{Name: "join30-nt", Phys: buildPhys(t, joinPlan(30), plan.NT, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	return e, []*QueryHandle{h}
}

// negateTieQuery is the negation that wrote negate_tie_upa.ckpt.
func negateTieQuery() ckptQuery {
	return ckptQuery{"negation-tie", 2, func() *plan.Node {
		w1 := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 100}, linkSchema())
		w2 := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
		return plan.NewNegate(w1, w2, []int{0}, []int{0})
	}}
}

// TestRestoreParentTieAnswer restores negate_tie_upa.ckpt, which 4a2a3e9
// wrote in a state its tie rule produced: W2 held two copies of value 5 from
// t=1, W1 took a, b and c at t=2, Advance(11) expired both copies and
// re-admitted c, then b, then a, and a W2 arrival at t=12 retracted c, the
// first admitted of three equal TS. The view holds {a, b}, where the oracle's
// answer is the youngest two in arrival order, {b, c}. The loader keeps the
// saved answer, since the view holds it: a and b move behind c, and the
// operator's answer is the suffix {a, b} again. From there every retraction
// it emits finds its tuple in the view, and once W2 empties the view is the
// oracle's.
func TestRestoreParentTieAnswer(t *testing.T) {
	ckpt, err := os.ReadFile("testdata/negate_tie_upa.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	ex := buildExecutorOpts(t, negateTieQuery(), plan.UPA, plan.Options{}, 1)
	if err := ex.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	view := func() string {
		snap, err := ex.Queries()[0].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var protos []string
		for _, tp := range snap {
			protos = append(protos, tp.Vals[1].S)
		}
		sort.Strings(protos)
		return strings.Join(protos, ",")
	}
	if got := view(); got != "a,b" {
		t.Fatalf("restored view holds %s, want the parent's a,b", got)
	}
	steps := []struct {
		do   func() error
		want string
	}{
		// One more W2 copy: the oldest of the answer, a, goes.
		{func() error {
			return ex.Push(1, 13, tuple.Int(5), tuple.String_("w2"), tuple.Int(0))
		}, "b"},
		// The copy from t=12 expires: the youngest outsider, a, is back.
		{func() error { return ex.Advance(22) }, "a,b"},
		// The last copy expires: c is in, and the view is the oracle's.
		{func() error { return ex.Advance(23) }, "a,b,c"},
	}
	for i, st := range steps {
		if err := st.do(); err != nil {
			t.Fatal(err)
		}
		if got := view(); got != st.want {
			t.Fatalf("step %d: view holds %s, want %s", i, got, st.want)
		}
	}
}

// restoreTarget is an engine a golden checkpoint restores into, and the
// stream count of the ckptTrace its arrivals come from.
type restoreTarget struct {
	file    string
	streams int
	open    func(t *testing.T) *Engine
}

// standaloneTargets are the engines of goldenCheckpoints.
func standaloneTargets() []restoreTarget {
	var ts []restoreTarget
	for _, g := range goldenCheckpoints() {
		ts = append(ts, restoreTarget{g.file, g.q.streams, func(t *testing.T) *Engine {
			return buildExecutorOpts(t, g.q, g.strat, g.opts, g.shards)
		}})
	}
	return ts
}

// restoreTargets are the engines of every golden under testdata/.
func restoreTargets() []restoreTarget {
	ts := standaloneTargets()
	for _, g := range tableGoldens {
		ts = append(ts, restoreTarget{g.file, 2, func(t *testing.T) *Engine {
			return openContract(t, contractPlans()[3], g.strat, 1).ex
		}})
	}
	return append(ts,
		restoreTarget{"negate_tie_upa.ckpt", 2, func(t *testing.T) *Engine {
			return buildExecutorOpts(t, negateTieQuery(), plan.UPA, plan.Options{}, 1)
		}},
		restoreTarget{"registry_mix.ckpt", 2, func(t *testing.T) *Engine {
			e, _ := newRegistryGolden(t)
			return e
		}},
		restoreTarget{"registry_one.ckpt", 2, func(t *testing.T) *Engine {
			e, _ := newRegistryOne(t)
			return e
		}},
	)
}

// restoreFault restores data into a target engine that has taken some
// arrivals of its own. Restore may accept data (a flipped payload can be a
// state some run writes) or refuse it, but it must return, and a refusal is
// a *checkpoint.MismatchError, checkpoint.ErrVersion or checkpoint.ErrCorrupt
// that leaves the engine's checkpoint bytes as they were. An accepted state
// must then take what a run does next without a panic (playOn). restoreFault
// returns the first of these rules data breaks, or nil.
func restoreFault(t *testing.T, tg restoreTarget, data []byte) error {
	t.Helper()
	e := tg.open(t)
	defer e.Close()
	feed(t, e, ckptTrace(tg.streams)[:16])
	var before, after bytes.Buffer
	if err := e.Checkpoint(&before); err != nil {
		t.Fatal(err)
	}
	err := recovered(func() error { return e.Restore(bytes.NewReader(data)) })
	var mm *checkpoint.MismatchError
	switch {
	case err == nil:
		if err := recovered(func() error { playOn(e, tg.streams); return nil }); err != nil {
			return fmt.Errorf("after an accepted restore: %w", err)
		}
	case errors.As(err, &mm) || errors.Is(err, checkpoint.ErrVersion) || errors.Is(err, checkpoint.ErrCorrupt):
		if err := e.Checkpoint(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			return fmt.Errorf("the refused restore (%v) changed the engine's checkpoint", err)
		}
	default:
		return fmt.Errorf("Restore: %w", err)
	}
	return nil
}

// recovered runs fn and turns a panic into an error with its stack.
func recovered(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return fn()
}

// playOn is what a run does after a restore: 32 more arrivals of ckptTrace
// (a PushBatch of 16, then one Push each), moved past the restored clock, an
// Advance past every window, and every read. Refusals are fine; only a panic
// is a fault.
func playOn(e *Engine, streams int) {
	next := ckptTrace(streams)[128:160]
	shift := max(0, e.Clock()-next[0].TS+1)
	batch := make([]Arrival, len(next))
	for i, a := range next {
		a.TS += shift
		batch[i] = a
	}
	_ = e.PushBatch(batch[:16])
	for _, a := range batch[16:] {
		_ = e.Push(a.Stream, a.TS, a.Vals...)
	}
	_ = e.Advance(batch[len(batch)-1].TS + 64)
	_ = e.Sync()
	_, _ = e.StateTuples()
	_, _ = e.Touched()
	_, _, _, _ = e.Stats(), e.Watermark(), e.Violations(), e.Clock()
	_, _ = e.DeltaLatency()
	_ = e.Checkpoint(io.Discard)
	for _, h := range e.Queries() {
		rows, _ := h.Snapshot()
		_, _ = h.ResultCount()
		k := tuple.Tuple{Vals: []tuple.Value{tuple.Int(0)}}.Key([]int{0})
		if len(rows) > 0 && len(rows[0].Vals) > 0 {
			k = rows[0].Key([]int{0})
		}
		_, _ = h.LookupKey(k)
		_ = h.Profile()
		_ = h.WriteProfile(io.Discard)
		_ = h.Explain(true)
		_ = h.Checkpoint(io.Discard)
	}
}

// TestRestoreBitFlips flips bit 0 of every byte after the first 16 of each
// standalone golden and puts each result through restoreFault. The race job
// skips the sweep (one goroutine, and ten times slower there); CI runs it
// unraced.
func TestRestoreBitFlips(t *testing.T) {
	if race.Enabled {
		t.Skip("single-goroutine sweep; run unraced")
	}
	for _, tg := range standaloneTargets() {
		t.Run(tg.file, func(t *testing.T) {
			ckpt, err := os.ReadFile("testdata/" + tg.file)
			if err != nil {
				t.Fatal(err)
			}
			flipped := make([]byte, len(ckpt))
			for i := 16; i < len(ckpt); i++ {
				copy(flipped, ckpt)
				flipped[i] ^= 1
				if err := restoreFault(t, tg, flipped); err != nil {
					t.Errorf("byte %d: %v", i, err)
				}
			}
		})
	}
}

// FuzzRestore puts mutations of every golden under testdata/ through
// restoreFault: each is refused with the target unchanged, or accepted and
// then played on without a panic. The first input picks the golden's
// target.
func FuzzRestore(f *testing.F) {
	targets := restoreTargets()
	for i, tg := range targets {
		ckpt, err := os.ReadFile("testdata/" + tg.file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), ckpt)
	}
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		if err := restoreFault(t, targets[int(pick)%len(targets)], data); err != nil {
			t.Error(err)
		}
	})
}
