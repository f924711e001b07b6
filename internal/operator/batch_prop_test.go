package operator

// Property test for the one operator contract: a run is a sequence of events,
// each handled to completion before the next, so where a run is cut never
// shows. For any operator and any random event script (mixed-polarity runs,
// Advance interleavings), driving every run (a) whole, (b) one element per
// ProcessBatch call — the form a single Push takes — and (c) over a random
// partition must produce byte-identical emission renderings at every step and
// leave identical StateSize()/Touched() accounting; (d) the columnar kernel,
// where the operator has one, must agree with all three.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// propOp describes one operator under test: make() builds a fresh,
// identically-configured instance (called once per driver).
type propOp struct {
	name  string
	sides int
	negOK bool // script may retract previously inserted tuples
	noCol bool // the operator has no columnar kernel
	make  func(t *testing.T) Operator
}

// fillPropTable loads the table side of the relation joins: sources 0 and 1
// match one row each, source 2 matches two, source 3 none. It runs after the
// operator has built its probe index, so every instance probes rows in
// insertion order (an index built over existing rows takes map order).
func fillPropTable(t *testing.T, tbl *relation.Table) {
	for i, sym := range []int64{0, 1, 2, 2} {
		insertRow(t, tbl, 0, sym, fmt.Sprintf("co%d", i))
	}
}

func propOps() []propOp {
	list := statebuf.Config{Kind: statebuf.KindList}
	part := statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 64, Partitions: 8}
	return []propOp{
		{name: "select", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			return NewSelect(linkSchema(), ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")})
		}},
		{name: "project", sides: 1, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			p, err := NewProject(linkSchema(), []int{2, 0})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{name: "union", sides: 2, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			u, err := NewUnion(linkSchema(), linkSchema())
			if err != nil {
				t.Fatal(err)
			}
			return u
		}},
		{name: "join", sides: 2, negOK: true, make: func(t *testing.T) Operator {
			j, err := NewJoin(JoinConfig{
				Left: linkSchema(), Right: linkSchema(),
				LeftCols: []int{0}, RightCols: []int{0},
				LeftBuf: statebuf.Config{Kind: statebuf.KindHash}, RightBuf: list,
			})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
		{name: "distinct", sides: 1, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			return NewDistinct(DistinctConfig{
				Schema: linkSchema(), InputBuf: list, RepIdx: part, TimeExpiry: true,
			})
		}},
		{name: "distinct-delta", sides: 1, negOK: false, noCol: true, make: func(t *testing.T) Operator {
			return NewDistinctDelta(linkSchema(), 64, 8)
		}},
		{name: "groupby", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			g, err := NewGroupBy(GroupByConfig{
				Input:     linkSchema(),
				GroupCols: []int{1},
				Aggs:      []AggSpec{{Kind: Count}, {Kind: Sum, Col: 2}},
				InputBuf:  list,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{name: "negate", sides: 2, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			n, err := NewNegate(NegateConfig{
				Left: linkSchema(), Right: linkSchema(),
				LeftCols: []int{1}, RightCols: []int{1},
				Horizon: 64, Partitions: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
		{name: "intersect", sides: 2, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			x, err := NewIntersect(IntersectConfig{
				Left: linkSchema(), Right: linkSchema(),
				Horizon: 64, Partitions: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return x
		}},
		{name: "nrr-join", sides: 1, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			j, err := NewNRRJoin(NRRJoinConfig{
				Stream: linkSchema(), Table: symTable(false),
				StreamCols: []int{0}, TableCols: []int{0},
				LogResults: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			fillPropTable(t, j.Table())
			return j
		}},
		{name: "rel-join", sides: 1, negOK: true, noCol: true, make: func(t *testing.T) Operator {
			j, err := NewRelJoin(RelJoinConfig{
				Stream: linkSchema(), Table: symTable(true),
				StreamCols: []int{0}, TableCols: []int{0},
				StreamBuf: list,
			})
			if err != nil {
				t.Fatal(err)
			}
			fillPropTable(t, j.Table())
			return j
		}},
	}
}

// propEvent is either an Advance to now (run == nil) or a run of same-side,
// same-clock tuples.
type propEvent struct {
	now  int64
	side int
	run  []tuple.Tuple
}

// genScript builds a deterministic event script: monotone clock, small bursty
// runs, occasional retractions of still-live tuples, occasional pure Advance
// steps that cross expiration boundaries.
func genScript(r *rand.Rand, sides int, negOK bool, steps int) []propEvent {
	var script []propEvent
	live := make([][]tuple.Tuple, sides)
	now := int64(1)
	for step := 0; step < steps; step++ {
		now += int64(r.Intn(4))
		// Drop expired tuples from the retraction pool so negatives always
		// target tuples the operator may still hold.
		for s := range live {
			keep := live[s][:0]
			for _, t := range live[s] {
				if t.Exp > now+1 {
					keep = append(keep, t)
				}
			}
			live[s] = keep
		}
		if r.Intn(5) == 0 {
			script = append(script, propEvent{now: now, side: -1})
			continue
		}
		side := r.Intn(sides)
		n := 1 + r.Intn(8)
		run := make([]tuple.Tuple, 0, n)
		for i := 0; i < n; i++ {
			if negOK && len(live[side]) > 0 && r.Intn(4) == 0 {
				k := r.Intn(len(live[side]))
				run = append(run, live[side][k].Negative(now))
				live[side] = append(live[side][:k], live[side][k+1:]...)
				continue
			}
			t := linkTuple(now, now+5+int64(r.Intn(20)),
				int64(r.Intn(4)), []string{"ftp", "http", "telnet"}[r.Intn(3)], int64(r.Intn(5)))
			run = append(run, t)
			live[side] = append(live[side], t)
		}
		script = append(script, propEvent{now: now, side: side, run: run})
	}
	return script
}

func renderEmissions(ts []tuple.Tuple) string { return fmt.Sprint(ts) }

// processCut drives run through op in the pieces cuts describes (ascending
// interior cut points) and returns the concatenated emissions.
func processCut(op Operator, side int, run []tuple.Tuple, now int64, cuts []int, out *Emit) ([]tuple.Tuple, error) {
	out.Reset()
	from := 0
	for _, to := range append(cuts, len(run)) {
		if err := op.ProcessBatch(side, run[from:to], now, out); err != nil {
			return nil, err
		}
		from = to
	}
	return out.Tuples(), nil
}

func TestRunSplittingInvariance(t *testing.T) {
	for _, op := range propOps() {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", op.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				script := genScript(r, op.sides, op.negOK, 120)
				whole := op.make(t) // one ProcessBatch per run
				ones := op.make(t)  // one ProcessBatch per element
				part := op.make(t)  // a random partition of each run
				col := op.make(t)   // columnar kernel, when the operator has one
				colSup := ColSupported(col)
				if colSup == op.noCol {
					t.Fatalf("%s: columnar kernel support = %v", op.name, colSup)
				}
				intern := tuple.NewInterner()
				var colIn, colOut *tuple.ColBatch
				if colSup {
					colIn = tuple.NewColBatch(linkSchema())
					colOut = tuple.NewColBatch(col.Schema())
				}
				out := &Emit{} // recycled across events like the executor's
				var bBuf, cBuf Emit
				for i, ev := range script {
					if ev.run == nil {
						a, errA := whole.Advance(ev.now)
						b, errB := ones.Advance(ev.now)
						c, errC := part.Advance(ev.now)
						if errA != nil || errB != nil || errC != nil {
							t.Fatalf("event %d: Advance errs %v/%v/%v", i, errA, errB, errC)
						}
						if renderEmissions(a) != renderEmissions(b) || renderEmissions(a) != renderEmissions(c) {
							t.Fatalf("event %d: Advance(%d) emissions diverge\nwhole: %v\nones:  %v\npart:  %v",
								i, ev.now, a, b, c)
						}
						if colSup {
							d, errD := col.Advance(ev.now)
							if errD != nil {
								t.Fatalf("event %d: columnar Advance: %v", i, errD)
							}
							if renderEmissions(a) != renderEmissions(d) {
								t.Fatalf("event %d: columnar Advance(%d) diverges\nwhole:    %v\ncolumnar: %v",
									i, ev.now, a, d)
							}
						}
						continue
					}
					var every, some []int
					for c := 1; c < len(ev.run); c++ {
						every = append(every, c)
						if r.Intn(3) == 0 {
							some = append(some, c)
						}
					}
					a, errA := processCut(whole, ev.side, ev.run, ev.now, nil, out)
					b, errB := processCut(ones, ev.side, ev.run, ev.now, every, &bBuf)
					c, errC := processCut(part, ev.side, ev.run, ev.now, some, &cBuf)
					if errA != nil || errB != nil || errC != nil {
						t.Fatalf("event %d: ProcessBatch errs %v/%v/%v", i, errA, errB, errC)
					}
					if renderEmissions(a) != renderEmissions(b) || renderEmissions(a) != renderEmissions(c) {
						t.Fatalf("event %d: run emissions diverge (side %d, now %d, %d tuples, cuts %v)\nwhole: %v\nones:  %v\npart:  %v",
							i, ev.side, ev.now, len(ev.run), some, a, b, c)
					}
					if colSup {
						if !colIn.FromRows(ev.run, intern) {
							t.Fatalf("event %d: run refused columnar layout", i)
						}
						colOut.Reset()
						if err := ProcessColBatch(col, ev.side, colIn, ev.now, colOut, intern); err != nil {
							t.Fatalf("event %d: ProcessColBatch: %v", i, err)
						}
						d := colOut.AppendRowsTo(nil, nil, intern)
						if renderEmissions(a) != renderEmissions(d) {
							t.Fatalf("event %d: columnar emissions diverge (side %d, now %d, %d tuples)\nwhole:    %v\ncolumnar: %v",
								i, ev.side, ev.now, len(ev.run), a, d)
						}
					}
					// Accounting must track step by step, not just at the end:
					// no cut may skip or duplicate state work.
					if whole.StateSize() != ones.StateSize() || whole.StateSize() != part.StateSize() {
						t.Fatalf("event %d: StateSize diverges: whole=%d ones=%d part=%d",
							i, whole.StateSize(), ones.StateSize(), part.StateSize())
					}
					if colSup && whole.StateSize() != col.StateSize() {
						t.Fatalf("event %d: columnar StateSize diverges: whole=%d columnar=%d",
							i, whole.StateSize(), col.StateSize())
					}
					if whole.Touched() != ones.Touched() || whole.Touched() != part.Touched() {
						t.Fatalf("event %d: Touched diverges: whole=%d ones=%d part=%d",
							i, whole.Touched(), ones.Touched(), part.Touched())
					}
				}
			})
		}
	}
}
