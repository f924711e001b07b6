package operator

// Allocation-regression gate for the stateless batch fast path. These budgets
// are the point of ProcessBatch: once the Emit buffer has warmed to capacity,
// Select and Union must process a whole run without a single heap allocation,
// and Project at most one per projectBlockRows rows (the value block its rows
// are carved from). A failure here means a change re-introduced per-tuple
// allocations on the hot path — fix the change, don't raise the budget
// without a recorded benchmark justifying it.
//
// The budgets are skipped under -race: the detector's shadow bookkeeping
// allocates on otherwise allocation-free paths. CI runs them in a dedicated
// non-race step.

import (
	"testing"

	"repro/internal/race"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// allocBudget asserts fn performs at most budget heap allocations per run.
func allocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	if got := testing.AllocsPerRun(200, fn); got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.1f", name, got, budget)
	}
}

// allocBatch builds a 64-tuple run alternating match/no-match tuples.
func allocBatch() []tuple.Tuple {
	in := make([]tuple.Tuple, 64)
	for i := range in {
		proto := "ftp"
		if i%2 == 1 {
			proto = "http"
		}
		in[i] = linkTuple(10, 40, int64(i%8), proto, int64(i))
	}
	return in
}

func TestSelectBatchAllocFree(t *testing.T) {
	s := NewSelect(linkSchema(), ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")})
	in := allocBatch()
	out := &Emit{}
	// Warm the Emit to the run's emission count so steady-state runs only
	// reuse capacity, as the executor's buffers do.
	if err := s.ProcessBatch(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	allocBudget(t, "Select.ProcessBatch", 0, func() {
		out.Reset()
		if err := s.ProcessBatch(0, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnionBatchAllocFree(t *testing.T) {
	u, err := NewUnion(linkSchema(), linkSchema())
	if err != nil {
		t.Fatal(err)
	}
	in := allocBatch()
	out := &Emit{}
	if err := u.ProcessBatch(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	allocBudget(t, "Union.ProcessBatch", 0, func() {
		out.Reset()
		if err := u.ProcessBatch(1, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
}

func TestProjectBatchSingleAlloc(t *testing.T) {
	p, err := NewProject(linkSchema(), []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	in := allocBatch()
	out := &Emit{}
	if err := p.ProcessBatch(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	// At most one allocation per projectBlockRows rows, whether the rows come
	// as one run or as runs of one arrival each.
	budget := float64(len(in)) / projectBlockRows
	allocBudget(t, "Project.ProcessBatch of one run", budget, func() {
		out.Reset()
		if err := p.ProcessBatch(0, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
	allocBudget(t, "Project.ProcessBatch of single-arrival runs", budget, func() {
		for i := range in {
			out.Reset()
			if err := p.ProcessBatch(0, in[i:i+1], 10, out); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestProjectBorrowAllocFree holds a borrowing projection to zero
// allocations: its rows are subslices of its input's. Only a contiguous
// ascending column range can borrow.
func TestProjectBorrowAllocFree(t *testing.T) {
	p, err := NewProject(linkSchema(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.SetBorrow(true) {
		t.Fatal("columns 1, 2 refused to borrow")
	}
	for _, cols := range [][]int{{2, 1}, {0, 2}, {1, 1}} {
		if q, err := NewProject(linkSchema(), cols); err == nil && q.SetBorrow(true) {
			t.Fatalf("columns %v borrow", cols)
		}
	}
	in := allocBatch()
	out := &Emit{}
	if err := p.ProcessBatch(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	for i, o := range out.Tuples() {
		if &o.Vals[0] != &in[i].Vals[1] || cap(o.Vals) != 2 {
			t.Fatalf("row %d: %v is not a capped view of %v", i, o.Vals, in[i].Vals)
		}
	}
	allocBudget(t, "borrowing Project.ProcessBatch", 0, func() {
		out.Reset()
		if err := p.ProcessBatch(0, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJoinKeyedCalendarAllocFree is the Query 4 join under UPA: both sides in
// calendars indexed on the join column. Inserting a run, probing the other
// side for each arrival and expiring both sides must not allocate when
// nothing matches (results are the only inherent allocation): the calendar
// implements ProbeAppender, so no probe takes the scan fallback and its
// visitor closure.
func TestJoinKeyedCalendarAllocFree(t *testing.T) {
	cal := statebuf.Config{Kind: statebuf.KindPartitioned, KeyCols: []int{0}, Horizon: 40, Partitions: 8}
	j, err := NewJoin(JoinConfig{
		Left: linkSchema(), Right: linkSchema(),
		LeftCols: []int{0}, RightCols: []int{0},
		LeftBuf: cal, RightBuf: cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	left, right := allocBatch(), allocBatch()
	for i := range right {
		right[i].Vals = []tuple.Value{tuple.Int(int64(100 + i%8)), right[i].Vals[1], right[i].Vals[2]}
	}
	out := &Emit{}
	now := int64(0)
	run := func() {
		now++
		for i := range left {
			left[i].TS, left[i].Exp = now, now+40-int64(i%5)
			right[i].TS, right[i].Exp = now, now+40-int64(i%3)
		}
		out.Reset()
		if err := j.ProcessBatch(0, left, now, out); err != nil {
			t.Fatal(err)
		}
		if err := j.ProcessBatch(1, right, now, out); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Advance(now); err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Fatalf("disjoint keys joined: %v", out.Tuples())
		}
	}
	for i := 0; i < 200; i++ {
		run()
	}
	allocBudget(t, "Join over keyed calendars", 0, run)
}

// TestGroupByAdvanceAllocBudget holds an expiration wave of four groups to at
// most one allocation: the replacement rows carve their values from a
// 16-row value block, so a fresh block every fourth wave is all it takes, and
// marking the wave's groups, ordering them and returning the rows must cost
// nothing once the scratch has warmed up.
func TestGroupByAdvanceAllocBudget(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Count}, AggSpec{Kind: Sum, Col: 2})
	protos := []string{"ftp", "http", "smtp", "telnet"}
	const window, ticks = 1000, 600
	var out Emit
	for ts := int64(0); ts < ticks; ts++ {
		run := make([]tuple.Tuple, 0, 2*len(protos))
		for i := 0; i < cap(run); i++ {
			run = append(run, linkTuple(ts, ts+window, int64(i), protos[i%len(protos)], 10))
		}
		out.Reset()
		if err := g.ProcessBatch(0, run, ts, &out); err != nil {
			t.Fatal(err)
		}
	}
	now := int64(window - 1)
	wave := func() {
		now++
		rows, err := g.Advance(now)
		if err != nil || len(rows) != len(protos) {
			t.Fatalf("wave at %d: %d rows, %v", now, len(rows), err)
		}
	}
	for i := 0; i < 100; i++ {
		wave()
	}
	allocBudget(t, "GroupBy expiration wave of four groups", 1, wave)
}

// TestDistinctDeltaWaveAllocFree holds δ's steady state — duplicates
// refreshing auxiliaries, expiration waves promoting them — to zero
// allocations per run: the slots, the calendar's slab and the wave's output
// are all reused.
func TestDistinctDeltaWaveAllocFree(t *testing.T) {
	d := NewDistinctDelta(linkSchema(), 16, 4)
	run := make([]tuple.Tuple, 32)
	for i := range run {
		run[i] = linkTuple(0, 0, int64(i%16), "ftp", 1)
	}
	var out Emit
	now, waves := int64(0), 0
	tick := func() {
		now++
		for i := range run {
			// Sixteen values, two copies each; lifetimes differ by value, so
			// representatives expire in most waves.
			run[i].TS, run[i].Exp = now, now+3+int64(i%5)+int64(i/16)
		}
		out.Reset()
		if err := d.ProcessBatch(0, run, now, &out); err != nil {
			t.Fatal(err)
		}
		if out.Len() > 0 {
			waves++
		}
	}
	for i := 0; i < 200; i++ {
		tick()
	}
	waves = 0
	allocBudget(t, "DistinctDelta run with an expiration wave", 0, tick)
	if waves < 100 {
		t.Fatalf("only %d of 201 runs promoted an auxiliary", waves)
	}
}

// TestDistinctDuplicateAllocFree holds the literature Distinct behind a
// borrowing projection, in its NT and its DIRECT configuration, to the cost
// of what it keeps: a duplicate arrival stores its representative's values
// and allocates nothing, and a fresh value allocates at most one value block
// per projectBlockRows values. Each arrival lives eight ticks; under NT a
// negative tuple then retracts it, under DIRECT it expires.
func TestDistinctDuplicateAllocFree(t *testing.T) {
	const life = 8
	for _, nt := range []bool{true, false} {
		t.Run(strategyName(nt), func(t *testing.T) {
			p, err := NewProject(linkSchema(), []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			if !p.SetBorrow(true) {
				t.Fatal("columns 0, 1 refused to borrow")
			}
			d := literatureDistinct(p.Schema(), nt, life)
			// rows[i%life] is the arrival of tick i; under NT it is retracted
			// when tick i+life reuses its row, before the row is overwritten.
			rows := make([]tuple.Tuple, life)
			for i := range rows {
				rows[i] = linkTuple(0, 0, 0, "ftp", int64(i))
			}
			one := make([]tuple.Tuple, 1)
			var proj, out Emit
			now, fresh := int64(0), false
			deliver := func(tp tuple.Tuple) {
				one[0] = tp
				proj.Reset()
				if err := p.ProcessBatch(0, one, now, &proj); err != nil {
					t.Fatal(err)
				}
				if err := d.ProcessBatch(0, proj.Tuples(), now, &out); err != nil {
					t.Fatal(err)
				}
			}
			tick := func() {
				now++
				r := &rows[now%life]
				out.Reset()
				if nt && r.TS > 0 {
					deliver(r.Negative(now))
				}
				r.TS, r.Exp = now, now+life
				if fresh {
					r.Vals[0] = tuple.Int(now)
				}
				deliver(*r)
			}
			// A run is ten blocks' worth of ticks, so AllocsPerRun's whole
			// count per run sees one allocation per block.
			const ticks = 10 * projectBlockRows
			ticks10 := func() {
				for i := 0; i < ticks; i++ {
					tick()
				}
			}
			ticks10()
			allocBudget(t, "duplicate arrivals", 0, ticks10)
			if d.reps.Len() != 1 || d.input.Len() != life {
				t.Fatalf("%d values and %d stored arrivals; want 1 and %d", d.reps.Len(), d.input.Len(), life)
			}
			fresh = true
			ticks10()
			allocBudget(t, "fresh values", ticks/projectBlockRows, ticks10)
		})
	}
}
