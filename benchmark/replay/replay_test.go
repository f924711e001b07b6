package replay

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/statebuf"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// arrivals builds n records of the generator as engine arrivals.
func arrivals(n, links int) []exec.Arrival {
	recs := trace.Generate(trace.Config{Tuples: n, Links: links, Seed: 9, SrcSkew: 0.5})
	out := make([]exec.Arrival, len(recs))
	for i, r := range recs {
		out[i] = exec.Arrival{Stream: r.Link, TS: r.TS, Vals: r.Vals}
	}
	return out
}

func TestRunsSplitLikeTheEngine(t *testing.T) {
	v := []tuple.Value{tuple.Int(1)}
	arr := []exec.Arrival{
		{Stream: 0, TS: 1, Vals: v}, {Stream: 0, TS: 1, Vals: v}, {Stream: 1, TS: 1, Vals: v},
		{Stream: 1, TS: 2, Vals: v}, {Stream: 1, TS: 2, Vals: v}, {Stream: 1, TS: 2, Vals: v},
	}
	// One call: runs split on stream and on timestamp.
	got := Runs(arr, 6)
	want := []int{2, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("%d runs, want %d", len(got), len(want))
	}
	for i, n := range want {
		if len(got[i].Rows) != n {
			t.Errorf("run %d has %d rows, want %d", i, len(got[i].Rows), n)
		}
	}
	// Calls of four: the call boundary cuts the last run in two.
	if got := Runs(arr, 4); len(got) != 4 || len(got[2].Rows) != 1 || len(got[3].Rows) != 2 {
		t.Errorf("batch 4: %d runs", len(got))
	}
	rows := 0
	for _, r := range Runs(arrivals(1000, 3), 128) {
		rows += len(r.Rows)
	}
	if rows != 1000 {
		t.Errorf("runs hold %d rows of 1000", rows)
	}
}

func TestColBuildAndWindowCountTuples(t *testing.T) {
	runs := Runs(arrivals(2000, 1), 256)
	if got := ColBuild(trace.Schema(), runs); got.Ops != 2000 || got.Nanos <= 0 {
		t.Errorf("ColBuild: %+v", got)
	}
	spec := window.Spec{Type: window.TimeBased, Size: 100}
	for _, columnar := range []bool{false, true} {
		admit, expire, err := Window(spec, false, columnar, runs)
		if err != nil {
			t.Fatal(err)
		}
		if admit.Ops != 2000 || expire.Ops != 2000 || admit.PerOp() <= 0 {
			t.Errorf("columnar %v: admit %+v expire %+v", columnar, admit, expire)
		}
	}
	// A materialised window cannot be stamped run-wise: the error surfaces.
	if _, _, err := Window(spec, true, true, runs); err == nil {
		t.Error("StampRun on a materialised window did not fail")
	}
	if _, _, err := Window(spec, true, false, runs); err != nil {
		t.Errorf("row admission into a materialised window: %v", err)
	}
}

// Every buffer kind is driven by the same stream, so every kind must insert
// the same tuples and expire the same tuples; only the cost differs.
func TestStatebufKindsDoTheSameWork(t *testing.T) {
	var tuples []tuple.Tuple
	for _, a := range arrivals(3000, 1) {
		tuples = append(tuples, tuple.New(a.TS, a.Vals...))
	}
	const horizon = 500
	var first [3]Timing
	for i, k := range Kinds {
		ins, probe, exp := Statebuf(k.Kind, []int{trace.ColSrc}, horizon, tuples)
		if ins.Ops == 0 || probe.Ops == 0 || exp.Ops == 0 {
			t.Fatalf("%s: insert %+v probe %+v expire %+v", k.Name, ins, probe, exp)
		}
		if i == 0 {
			first = [3]Timing{ins, probe, exp}
			continue
		}
		if ins.Ops != first[0].Ops || probe.Ops != first[1].Ops || exp.Ops != first[2].Ops {
			t.Errorf("%s did %d/%d/%d inserts/probes/expirations, %s did %d/%d/%d",
				k.Name, ins.Ops, probe.Ops, exp.Ops, Kinds[0].Name, first[0].Ops, first[1].Ops, first[2].Ops)
		}
	}
	// One record per time unit: after the untimed first horizon every chunk
	// expires exactly what it inserted.
	if first[0].Ops != first[2].Ops {
		t.Errorf("timed inserts %d != timed expirations %d at steady state", first[0].Ops, first[2].Ops)
	}
	if ins, _, _ := Statebuf(statebuf.KindFIFO, nil, horizon, nil); ins.Ops != 0 {
		t.Error("an empty stream did work")
	}
}

func TestViewFoldAndCheckpoint(t *testing.T) {
	var rows []tuple.Tuple
	for _, a := range arrivals(600, 1) {
		rows = append(rows, tuple.New(a.TS, a.Vals...).WithExp(a.TS+100))
	}
	got, err := ViewFold(plan.ViewConfig{Kind: plan.ViewFIFO, TimeExpiry: true}, rows[:100], rows[100:])
	if err != nil || got.Ops != 500 {
		t.Errorf("ViewFold: %+v, %v", got, err)
	}
	if _, err := ViewFold(plan.ViewConfig{Kind: plan.ViewKind(99)}, nil, nil); err == nil {
		t.Error("an unknown view kind did not fail")
	}
	enc, dec, size, err := Checkpoint(rows)
	if err != nil || enc.Ops != 600 || dec.Ops != 600 || size <= 0 {
		t.Errorf("Checkpoint: enc %+v dec %+v size %d err %v", enc, dec, size, err)
	}
}
