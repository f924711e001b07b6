package exec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// fuzzPlans is FuzzExecutor's plan pool: the partitionable plans Q1, Q3, Q4,
// Q5, the Q6 group-by on its join key, the intersection and ⋈R over a table.
func fuzzPlans() []contractPlan {
	ps := partitionPlans()
	return []contractPlan{ps[0], ps[2], ps[3], ps[4], ps[5], ps[6], ps[7]}
}

// fuzzInput reads the fuzz bytes one at a time; once they run out every
// read is 0.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) next() int {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return int(v)
}

// fuzzRun is one executor of FuzzExecutor with the table its plan reads.
type fuzzRun struct {
	ex     *Engine
	tbl    *relation.Table
	shards int
}

func openFuzzRun(t *testing.T, p contractPlan, strat plan.Strategy, shards int) (fuzzRun, *plan.Node) {
	root, tbl := p.build()
	phys := buildPhys(t, root, strat, plan.Options{})
	return fuzzRun{openAt(t, phys, Config{LazyInterval: 7, EagerInterval: 1}, shards), tbl, shards}, root
}

// FuzzExecutor decodes its bytes into a partitionable plan, a strategy and a
// schedule of Push and PushBatch splits (some past the tape's flush bound),
// Advance gaps, table updates, Syncs and one checkpoint → restore cut into
// fresh executors, and drives the schedule into Open(…, 1) and Open(…, 3).
// After every Sync both answer what internal/reference evaluates, and both
// have emitted and retracted as many deltas. At the cut each checkpoint is
// written twice with the same bytes, and the executor restored from it
// writes them again.
func FuzzExecutor(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 7, 9, 2, 0, 2, 3, 1, 6, 4, 20, 6})
	f.Add([]byte{2, 0, 2, 30, 7, 1, 7, 4, 9, 6, 2, 12, 6})
	f.Add([]byte{4, 1, 3, 2, 11, 5, 1, 3, 4, 5, 9, 7, 2, 6, 6})
	f.Add([]byte{6, 2, 5, 3, 1, 0, 2, 9, 5, 0, 4, 3, 6, 7, 5, 9, 6})
	f.Fuzz(func(t *testing.T, data []byte) { fuzzExecutor(t, data, false) })
}

// FuzzExecutorRefusals runs FuzzExecutor's schedule with one more op, a
// refused call, and checks that it leaves no trace. Each executor has a twin
// that receives every call it does, except that of a refused call the twin
// receives only what the call applied: nothing, or the runs of a PushBatch
// before its bad row. The refusals are a Push, Advance or table update whose
// time regresses, a Push on a stream no query reads, and a PushBatch with
// either bad row in the middle. After each, the executor must checkpoint the
// twin's bytes and have the twin's arrival count (upa_arrivals_total), Clock
// and Watermark; the twins also answer every Sync and take the cut.
func FuzzExecutorRefusals(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 2, 1, 5, 8, 0, 0, 8, 1, 4, 2, 1, 0, 0, 3, 1, 1, 1, 1, 1, 8, 2, 1, 9, 3, 1, 0, 2, 2, 4, 4, 5, 6})
	// A partitioned PushBatch refused after one run must leave that run
	// pending as PushBatch of it would, and a Sync must reach the twins too.
	f.Add([]byte("00Y00110"))
	f.Add([]byte("\x00#$CY00Y9\x01\x06Y00"))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzExecutor(t, data, true) })
}

// fuzzExecutor decodes and drives one schedule; refusals adds the refused
// call as op 8 and a twin per executor.
func fuzzExecutor(t *testing.T, data []byte, refusals bool) {
	in := &fuzzInput{data}
	plans := fuzzPlans()
	p := plans[in.next()%len(plans)]
	strat := []plan.Strategy{plan.NT, plan.Direct, plan.UPA}[in.next()%3]
	one, root := openFuzzRun(t, p, strat, 1)
	three, _ := openFuzzRun(t, p, strat, 3)
	runs, ops := []*fuzzRun{&one, &three}, 8
	var twins []*fuzzRun
	all := runs
	if refusals {
		oneTwin, _ := openFuzzRun(t, p, strat, 1)
		threeTwin, _ := openFuzzRun(t, p, strat, 3)
		twins, ops = []*fuzzRun{&oneTwin, &threeTwin}, 9
		all = append(slices.Clone(runs), twins...)
	}
	ref, refTbl := reference.New(root), one.tbl

	ts := int64(0)
	row := func(stream int, at int64) Arrival {
		return Arrival{Stream: stream, TS: at, Vals: []tuple.Value{
			tuple.Int(int64(in.next() % 6)), tuple.String_(protos[in.next()%len(protos)]), tuple.Int(int64(in.next() % 100)),
		}}
	}
	arrival := func() Arrival {
		ts += int64(in.next() % 3)
		return row(in.next()%p.streams, ts)
	}
	each := func(what string, fn func(r *fuzzRun) error) {
		t.Helper()
		for _, r := range all {
			if err := fn(r); err != nil {
				t.Fatalf("%s at %d partitions: %v", what, r.shards, err)
			}
		}
	}
	pushBatch := func(batch []Arrival) {
		each("PushBatch", func(r *fuzzRun) error { return r.ex.PushBatch(batch) })
		for _, a := range batch {
			ref.Push(a.Stream, a.TS, a.Vals...)
		}
	}
	check := func() {
		t.Helper()
		if one.ex.Clock() < 0 {
			return
		}
		want, err := ref.Eval(one.ex.Clock())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range all {
			got, err := r.ex.Queries()[0].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reference.SameBag(reference.RowsOf(got), want) {
				t.Fatalf("%d partitions at t=%d answer\n%s\nthe reference\n%s", r.shards, r.ex.Clock(),
					reference.Render(reference.RowsOf(got)), reference.Render(want))
			}
		}
		if s1, s3 := one.ex.Stats(), three.ex.Stats(); s1.Emitted != s3.Emitted || s1.Retracted != s3.Retracted {
			t.Fatalf("3 partitions emitted %+v, 1 partition %+v", s3, s1)
		}
	}
	// refused hands call to each executor, which must refuse it, and
	// what it applied to the executor's twin and the reference; then the
	// two must be alike.
	refused := func(what string, call func(r *fuzzRun) error, applied []Arrival) {
		t.Helper()
		for i, r := range runs {
			if err := call(r); err == nil {
				t.Fatalf("%d partitions accepted %s", r.shards, what)
			}
			if len(applied) > 0 {
				if err := twins[i].ex.PushBatch(applied); err != nil {
					t.Fatalf("%d partitions' twin refused the prefix of %s: %v", r.shards, what, err)
				}
			}
			sameAsTwin(t, what, r, twins[i])
		}
		for _, a := range applied {
			ref.Push(a.Stream, a.TS, a.Vals...)
		}
	}
	var inserted [][]tuple.Value
	cut, big := false, false
	for step := 0; step < 64 && len(in.b) > 0; step++ {
		switch in.next() % ops {
		case 0, 1:
			a := arrival()
			each("Push", func(r *fuzzRun) error { return r.ex.Push(a.Stream, a.TS, a.Vals...) })
			ref.Push(a.Stream, a.TS, a.Vals...)
		case 2:
			batch := make([]Arrival, 1+in.next()%48)
			for i := range batch {
				batch[i] = arrival()
			}
			pushBatch(batch)
		case 3:
			// A batch past the tape's flush bound, drawn from a seed; one
			// per input keeps the reference's recomputation cheap.
			if big {
				continue
			}
			big = true
			rng := rand.New(rand.NewSource(int64(in.next())))
			batch := make([]Arrival, tapeFlushRows+1+rng.Intn(512))
			for i := range batch {
				ts += int64(rng.Intn(2))
				batch[i] = Arrival{Stream: rng.Intn(p.streams), TS: ts, Vals: rndTuple(rng)}
			}
			pushBatch(batch)
		case 4:
			ts += int64(in.next() % 48)
			at := ts
			each("Advance", func(r *fuzzRun) error { return r.ex.Advance(at) })
		case 5:
			if one.tbl == nil {
				continue
			}
			u := relation.Update{Kind: relation.Insert, TS: ts,
				Row: []tuple.Value{tuple.Int(int64(in.next() % 6)), tuple.String_(protos[in.next()%len(protos)])}}
			if len(inserted) > 0 && in.next()%3 == 0 {
				u = relation.Update{Kind: relation.Delete, TS: ts, Row: inserted[0]}
				inserted = inserted[1:]
			} else {
				inserted = append(inserted, u.Row)
			}
			each("ApplyTableUpdate", func(r *fuzzRun) error { return r.ex.ApplyTableUpdate(r.tbl, u) })
			ref.PushTable(refTbl, u)
		case 6:
			check()
		case 7:
			if cut {
				continue
			}
			cut = true
			for _, r := range all {
				var a, b, c bytes.Buffer
				if err := r.ex.Queries()[0].Checkpoint(&a); err != nil {
					t.Fatal(err)
				}
				// The engine holds one query, so its own checkpoint is the
				// query's.
				if err := r.ex.Checkpoint(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("%d partitions: the engine's and its query's checkpoints of one state differ", r.shards)
				}
				fresh, _ := openFuzzRun(t, p, strat, r.shards)
				if err := fresh.ex.Restore(bytes.NewReader(a.Bytes())); err != nil {
					t.Fatalf("%d partitions: Restore: %v", r.shards, err)
				}
				if err := fresh.ex.Queries()[0].Checkpoint(&c); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), c.Bytes()) {
					t.Fatalf("%d partitions: the restored executor checkpoints other bytes", r.shards)
				}
				*r = fresh
			}
		case 8:
			back := one.ex.Clock() - 1 - int64(in.next()%3)
			unknown := p.streams + in.next()%3
			switch kind := in.next() % 5; {
			case kind == 0:
				a := row(0, back)
				refused("a regressing Push", func(r *fuzzRun) error { return r.ex.Push(a.Stream, a.TS, a.Vals...) }, nil)
			case kind == 1:
				refused("a regressing Advance", func(r *fuzzRun) error { return r.ex.Advance(back) }, nil)
			case kind == 2 && one.tbl != nil:
				u := relation.Update{Kind: relation.Insert, TS: back,
					Row: []tuple.Value{tuple.Int(int64(in.next() % 6)), tuple.String_(protos[in.next()%len(protos)])}}
				refused("a regressing table update", func(r *fuzzRun) error { return r.ex.ApplyTableUpdate(r.tbl, u) }, nil)
			case kind <= 3:
				a := row(unknown, ts)
				refused("a Push on an unknown stream", func(r *fuzzRun) error { return r.ex.Push(a.Stream, a.TS, a.Vals...) }, nil)
			default:
				// Valid rows, a bad one (regressing before the clock the
				// prefix leaves, or on an unknown stream), valid rows.
				batch := make([]Arrival, in.next()%6)
				for i := range batch {
					batch[i] = arrival()
				}
				prefix := batch
				bad := row(unknown, ts)
				if in.next()%2 == 0 {
					bad.Stream, bad.TS = 0, back
					if len(prefix) > 0 {
						bad.TS = ts - 1 - int64(in.next()%3)
					}
				}
				batch = append(batch, bad)
				for n := in.next() % 3; n > 0; n-- {
					batch = append(batch, row(in.next()%p.streams, ts))
				}
				refused("a PushBatch with a bad row in the middle", func(r *fuzzRun) error { return r.ex.PushBatch(batch) }, prefix)
			}
		}
	}
	check()
}

// sameAsTwin fails unless r and its twin write the same checkpoint bytes and
// have the same arrival count, Clock and Watermark. The checkpoints replay
// what a partitioned engine's tape holds first, so both have published
// their watermark when it is read.
func sameAsTwin(t *testing.T, what string, r, twin *fuzzRun) {
	t.Helper()
	var a, b bytes.Buffer
	if err := r.ex.Queries()[0].Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := twin.ex.Queries()[0].Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%d partitions: after refusing %s the executor checkpoints other bytes than its twin", r.shards, what)
	}
	type seen struct{ arrivals, clock, mark int64 }
	got := seen{r.ex.Stats().Arrivals, r.ex.Clock(), r.ex.Watermark()}
	want := seen{twin.ex.Stats().Arrivals, twin.ex.Clock(), twin.ex.Watermark()}
	if got != want {
		t.Fatalf("%d partitions: after refusing %s the executor has %+v, its twin %+v", r.shards, what, got, want)
	}
}
