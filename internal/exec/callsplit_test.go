package exec

// A columnar PushBatch evaluates the selections over a source once for all of
// the call's runs, and replays every other kernel run by run at the run's own
// time (colpath.go). How a trace is cut into calls must therefore not show:
// one call for the whole trace, one call per run and the row chain must emit
// the same deltas in the same order and end in the same state.

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

// splitQuery is one named query of a call-split engine.
type splitQuery struct {
	name  string
	build func() *plan.Node
}

// splitShape is a set of queries over streams 0 and 1 that qualifies for the
// columnar chain under UPA and DIRECT.
type splitShape struct {
	name    string
	queries []splitQuery
}

// splitShapes are Query 1 (the join of ftp-selections) and the Query 6
// group-by on stream 0 beside a bare selection on stream 1, whose runs cut
// the group-by's same-timestamp runs apart.
func splitShapes() []splitShape {
	q1 := ckptQueries()[0]
	sel1 := func() *plan.Node {
		src := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 40}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	return []splitShape{
		{"Q1", []splitQuery{{"q1", q1.build}}},
		{"Q6", []splitQuery{{"q6", gbPlan}, {"sel1", sel1}}},
	}
}

// splitRun is one engine of a call-split test with the deltas each of its
// queries emitted, rendered with polarity, values, TS and Exp. A query's
// callbacks never overlap, so each appends to its own slice.
type splitRun struct {
	e     *Engine
	emits [][]string
}

func openSplitRun(t testing.TB, s splitShape, strat plan.Strategy, noColumnar bool) *splitRun {
	t.Helper()
	r := &splitRun{e: NewMulti(Config{LazyInterval: 7, EagerInterval: 1, NoColumnar: noColumnar}),
		emits: make([][]string, len(s.queries))}
	for i, q := range s.queries {
		root := q.build()
		if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
			t.Fatal(err)
		}
		phys, err := plan.Build(root, strat, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		emit := func(d tuple.Tuple) { r.emits[i] = append(r.emits[i], d.String()) }
		if _, err := r.e.RegisterQuery(QuerySpec{Name: q.name, Phys: phys, OnEmit: emit}); err != nil {
			t.Fatal(err)
		}
	}
	if r.e.Columnar() == noColumnar {
		t.Fatalf("%s under %v: Columnar() = %v with NoColumnar %v", s.name, strat, r.e.Columnar(), noColumnar)
	}
	return r
}

// runs cuts trace into its maximal same-(stream, timestamp) runs.
func runs(trace []Arrival) [][]Arrival {
	var out [][]Arrival
	for i := 0; i < len(trace); {
		j := i + 1
		for j < len(trace) && trace[j].Stream == trace[i].Stream && trace[j].TS == trace[i].TS {
			j++
		}
		out = append(out, trace[i:j])
		i = j
	}
	return out
}

// splitTrace is a named trace of the call-split test.
type splitTrace struct {
	name  string
	trace []Arrival
}

// splitTraces are the traces the call-split test feeds, all over streams 0
// and 1.
func splitTraces() []splitTrace {
	r := rand.New(rand.NewSource(29))
	// The generator's shape: the links alternate, one arrival per link and
	// timestamp, so every run is one arrival.
	var alternating []Arrival
	for i := 0; i < 400; i++ {
		alternating = append(alternating, Arrival{Stream: i % 2, TS: int64(i / 2), Vals: rndTuple(r)})
	}
	// A run of stream 0 cut in two by a run of stream 1 at the same time.
	var cut []Arrival
	for ts := int64(1); ts <= 60; ts++ {
		for _, s := range []int{0, 0, 1, 0, 0} {
			cut = append(cut, Arrival{Stream: s, TS: ts, Vals: rndTuple(r)})
		}
	}
	// One call longer than the tape's flush bound.
	long := make([]Arrival, tapeFlushRows+700)
	ts := int64(0)
	for i := range long {
		ts += int64(r.Intn(2))
		long[i] = Arrival{Stream: r.Intn(2), TS: ts, Vals: rndTuple(r)}
	}
	return []splitTrace{{"alternating", alternating}, {"bursts", colTrace(2, 300)}, {"cut-run", cut}, {"long", long}}
}

// splitState is what the call-split test compares between engines.
type splitState struct {
	stats       Stats
	touched     int64
	clock, mark int64
	emits       [][]string
	columnar    bool
}

func (r *splitRun) state(t testing.TB) splitState {
	t.Helper()
	touched, err := r.e.Touched()
	if err != nil {
		t.Fatal(err)
	}
	return splitState{stats: r.e.Stats(), touched: touched, clock: r.e.Clock(), mark: r.e.Watermark(),
		emits: r.emits, columnar: r.e.Columnar()}
}

// restartPeak resets the stored-tuple high-water mark to the current state.
// State is sampled per call, so engines that cut one trace into different
// calls legitimately sample different peaks.
func (r *splitRun) restartPeak() {
	r.e.met.maxStateTuples.Set(0)
	r.e.sampleState()
}

func (r *splitRun) checkpoint(t testing.TB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.e.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameSplitState fails unless got and want emitted the same deltas per query,
// in the same order, and agree on every counter and clock.
func sameSplitState(t testing.TB, what string, got, want splitState) {
	t.Helper()
	for q := range want.emits {
		if i, ok := firstDiffIndex(got.emits[q], want.emits[q]); !ok {
			t.Fatalf("%s: query %d's delta %d is %s, want %s (%d and %d deltas)", what, q, i,
				at(got.emits[q], i), at(want.emits[q], i), len(got.emits[q]), len(want.emits[q]))
		}
	}
	got.emits, want.emits = nil, nil
	got.columnar, want.columnar = false, false
	if got.stats != want.stats || got.touched != want.touched || got.clock != want.clock || got.mark != want.mark {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
}

// firstDiffIndex returns the first index where a and b differ, and false, or
// true when they are equal.
func firstDiffIndex(a, b []string) (int, bool) {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "nothing"
}

// TestColumnarCallSplitInvariance feeds each trace to each shape three ways —
// as one PushBatch, as one PushBatch per run, and as one PushBatch to the row
// chain — and requires the same deltas in the same order per query, the same
// Touched, Stats, Clock and Watermark, and, between the two columnar engines,
// the same checkpoint bytes; then the same again once time has moved past
// every window.
func TestColumnarCallSplitInvariance(t *testing.T) {
	for _, s := range splitShapes() {
		for _, strat := range []plan.Strategy{plan.UPA, plan.Direct} {
			for _, tr := range splitTraces() {
				trace := tr.trace
				t.Run(fmt.Sprintf("%s/%v/%s", s.name, strat, tr.name), func(t *testing.T) {
					whole, split, row := openSplitRun(t, s, strat, false), openSplitRun(t, s, strat, false), openSplitRun(t, s, strat, true)
					for _, r := range []*splitRun{whole, row} {
						if err := r.e.PushBatch(trace); err != nil {
							t.Fatal(err)
						}
					}
					for _, run := range runs(trace) {
						if err := split.e.PushBatch(run); err != nil {
							t.Fatal(err)
						}
					}
					// One call each: the peaks are sampled alike.
					sameSplitState(t, "one call on the row chain", row.state(t), whole.state(t))
					for _, r := range []*splitRun{whole, split, row} {
						r.restartPeak()
					}
					sameSplitState(t, "one call per run", split.state(t), whole.state(t))
					if !bytes.Equal(split.checkpoint(t), whole.checkpoint(t)) {
						t.Fatal("one call per run and one call for the trace checkpoint different bytes")
					}
					if !whole.e.Columnar() || !split.e.Columnar() {
						t.Fatal("a columnar engine left the columnar chain")
					}
					end := whole.e.Clock() + 100
					for _, r := range []*splitRun{whole, split, row} {
						if err := r.e.Advance(end); err != nil {
							t.Fatal(err)
						}
						if err := r.e.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					sameSplitState(t, "one call per run, past every window", split.state(t), whole.state(t))
					sameSplitState(t, "the row chain, past every window", row.state(t), whole.state(t))
				})
			}
		}
	}
}

// FuzzColumnarCallSplits decodes its bytes into a shape, a strategy and a
// schedule of arrivals — streams, timestamp gaps (0 continues a run),
// protocols — with at most one arrival whose first column is a float where
// the schema has an int, which demotes a columnar engine part-way through,
// and at most one whose timestamp regresses, which refuses the rest of its
// call. One columnar engine takes the schedule as one PushBatch, a second as
// PushBatch calls cut where the bytes say, and a row-chain engine as one
// PushBatch. All three must emit the same deltas per query; the columnar two
// must write the same checkpoint and apply the same prefix of a refused call.
func FuzzColumnarCallSplits(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 9, 1, 1, 0, 3, 4, 0, 0, 7, 1, 2, 5, 3})
	f.Add([]byte{1, 1, 0, 0, 2, 0, 0, 1, 3, 1, 0, 2, 1, 1, 2, 0, 9, 9})
	f.Add([]byte{0, 1, 40, 200, 5, 0, 1, 0, 2, 1, 0, 3, 0, 1, 0, 2, 1, 1, 1})
	f.Add([]byte{1, 0, 3, 100, 0, 1, 1, 1, 0, 0, 0, 2, 1, 0, 1, 1, 1, 2, 0, 0, 3})
	// The nonconforming and the regressing arrival are one: it must still
	// start a run of its own.
	f.Add([]byte("000000"))
	// Q1 under UPA, three arrivals at one timestamp on stream 0, the second
	// nonconforming, cut after the first: the cut calls lay out and intern
	// the first arrival's run before the second demotes the engine, one
	// call lays out nothing. The checkpoints must not tell them apart.
	f.Add([]byte{0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data}
		shapes := splitShapes()
		s := shapes[in.next()%len(shapes)]
		strat := []plan.Strategy{plan.UPA, plan.Direct}[in.next()%2]
		n := 1 + in.next()%96
		// 0 places no nonconforming or regressing arrival.
		demote, regress := in.next()%(n+1), in.next()%(n+1)
		trace := make([]Arrival, 0, n)
		cuts := []int{0}
		ts := int64(1)
		for i := 1; i <= n; i++ {
			b := in.next()
			ts += int64(b % 3)
			a := Arrival{Stream: (b >> 2) & 1, TS: ts, Vals: []tuple.Value{
				tuple.Int(int64((b >> 3) % 6)), tuple.String_(protos[(b>>5)%len(protos)]), tuple.Int(int64(in.next() % 100)),
			}}
			if i == demote {
				a.Vals[0] = tuple.Float(3)
			}
			if i == regress && i != demote && ts > 1 {
				a.TS = ts - 1
			}
			trace = append(trace, a)
			if in.next()%4 == 0 {
				cuts = append(cuts, len(trace))
			}
		}
		cuts = append(cuts, len(trace))

		whole, split, row := openSplitRun(t, s, strat, false), openSplitRun(t, s, strat, false), openSplitRun(t, s, strat, true)
		wholeErr := whole.e.PushBatch(trace)
		rowErr := row.e.PushBatch(trace)
		var splitErr error
		for k := 1; k < len(cuts) && splitErr == nil; k++ {
			if cuts[k] > cuts[k-1] {
				splitErr = split.e.PushBatch(trace[cuts[k-1]:cuts[k]])
			}
		}
		if (wholeErr == nil) != (splitErr == nil) || (wholeErr == nil) != (rowErr == nil) {
			t.Fatalf("one call: %v; cut calls: %v; row chain: %v", wholeErr, splitErr, rowErr)
		}
		if wholeErr != nil && whole.e.Stats().Arrivals != int64(regress-1) {
			t.Fatalf("the refused call applied %d arrivals, want the %d before the regressing one",
				whole.e.Stats().Arrivals, regress-1)
		}
		for _, r := range []*splitRun{whole, split, row} {
			r.restartPeak()
		}
		if whole.e.Columnar() != split.e.Columnar() {
			t.Fatalf("Columnar() = %v in one call, %v in cut calls", whole.e.Columnar(), split.e.Columnar())
		}
		sameSplitState(t, "cut calls", split.state(t), whole.state(t))
		sameSplitState(t, "the row chain", row.state(t), whole.state(t))
		if !bytes.Equal(split.checkpoint(t), whole.checkpoint(t)) {
			t.Fatal("cut calls and one call checkpoint different bytes")
		}
	})
}
