package exec

// Definition 1/2 conformance: every execution strategy's materialized view
// must equal the reference evaluator's from-scratch recomputation after
// every event, for every plan shape the paper uses. This is the central
// correctness property of the reproduction — if these tests pass, NT,
// DIRECT, and UPA (in both STR storage modes) are behaviourally equivalent
// and match the declarative semantics of Section 4.2.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cql"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

func linkSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "src", Kind: tuple.KindInt},
		tuple.Column{Name: "proto", Kind: tuple.KindString},
		tuple.Column{Name: "bytes", Kind: tuple.KindInt},
	)
}

var protos = []string{"ftp", "telnet", "smtp", "http"}

// driver abstracts pushing the same event to engine and reference.
type driver struct {
	t      *testing.T
	eng    *Engine
	ref    *reference.Evaluator
	root   *plan.Node
	every  int // check every N events
	events int
}

func (d *driver) push(stream int, ts int64, vals ...tuple.Value) {
	d.t.Helper()
	if err := d.eng.Push(stream, ts, vals...); err != nil {
		d.t.Fatalf("Push(%d,%d): %v", stream, ts, err)
	}
	d.ref.Push(stream, ts, vals...)
	d.check(ts)
}

func (d *driver) table(tbl *relation.Table, u relation.Update) {
	d.t.Helper()
	if err := d.eng.ApplyTableUpdate(tbl, u); err != nil {
		d.t.Fatalf("ApplyTableUpdate: %v", err)
	}
	d.ref.PushTable(tbl, u)
	d.check(u.TS)
}

func (d *driver) advance(ts int64) {
	d.t.Helper()
	if err := d.eng.Advance(ts); err != nil {
		d.t.Fatalf("Advance(%d): %v", ts, err)
	}
	d.check(ts)
}

func (d *driver) check(now int64) {
	d.t.Helper()
	d.events++
	if d.every > 1 && d.events%d.every != 0 {
		return
	}
	got, err := d.eng.Queries()[0].Snapshot()
	if err != nil {
		d.t.Fatalf("Snapshot: %v", err)
	}
	want, err := d.ref.Eval(now)
	if err != nil {
		d.t.Fatalf("reference: %v", err)
	}
	if !reference.SameBag(reference.RowsOf(got), want) {
		d.t.Fatalf("view diverged from Definition 1/2 at t=%d\nengine (%d rows):\n%s\nreference (%d rows):\n%s",
			now, len(got), reference.Render(reference.RowsOf(got)), len(want), reference.Render(want))
	}
}

// variant is one strategy (+ options) under test.
type variant struct {
	name  string
	strat plan.Strategy
	opts  plan.Options
}

func variants() []variant {
	return []variant{
		{"NT", plan.NT, plan.Options{}},
		{"DIRECT", plan.Direct, plan.Options{}},
		{"UPA", plan.UPA, plan.Options{}},
		{"UPA-str-part", plan.UPA, plan.Options{STR: plan.STRPartitioned}},
		{"UPA-str-hash", plan.UPA, plan.Options{STR: plan.STRHash}},
		{"UPA-p3", plan.UPA, plan.Options{Partitions: 3}},
	}
}

// runConformance builds the plan fresh per variant and drives the script.
func runConformance(t *testing.T, build func() (*plan.Node, []*relation.Table), script func(d *driver, tables []*relation.Table)) {
	t.Helper()
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			root, tables := build()
			if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
				t.Fatalf("Annotate: %v", err)
			}
			phys, err := plan.Build(root, v.strat, v.opts)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			eng, err := New(phys, Config{LazyInterval: 7, EagerInterval: 1})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			d := &driver{t: t, eng: eng, ref: reference.New(root), every: 1}
			script(d, tables)
		})
	}
}

func rndTuple(r *rand.Rand) []tuple.Value {
	return []tuple.Value{
		tuple.Int(int64(r.Intn(6))),
		tuple.String_(protos[r.Intn(len(protos))]),
		tuple.Int(int64(r.Intn(100))),
	}
}

func TestConformanceSelectWindow(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
			return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(1))
			for ts := int64(0); ts < 120; ts++ {
				d.push(0, ts, rndTuple(r)...)
			}
			d.advance(200) // full drain
		})
}

func TestConformanceProjectWindow(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			return plan.NewProject(src, 0, 1), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(2))
			for ts := int64(0); ts < 100; ts++ {
				d.push(0, ts, rndTuple(r)...)
			}
			d.advance(150)
		})
}

func TestConformanceUnionDifferentWindowSizes(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
			return plan.NewUnion(a, b), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(3))
			for ts := int64(0); ts < 100; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(200)
		})
}

func TestConformanceWindowJoin(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 12}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
			return plan.NewJoin(a, b, []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(4))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestConformanceQuery1Shape(t *testing.T) {
	// Figure 8 Query 1: σ(protocol=ftp) on both links, join on srcIP.
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			sel := func(id int) *plan.Node {
				src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
				return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			}
			return plan.NewJoin(sel(0), sel(1), []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(5))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(250)
		})
}

func TestConformanceDistinct(t *testing.T) {
	// Figure 8 Query 2: distinct source IPs on one link.
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			return plan.NewDistinct(plan.NewProject(src, 0)), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(6))
			for ts := int64(0); ts < 150; ts++ {
				d.push(0, ts, rndTuple(r)...)
				if ts%13 == 0 {
					d.advance(ts + 1) // quiet gaps exercise pure expiration
				}
			}
			d.advance(300)
		})
}

func TestConformanceDistinctPairs(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			return plan.NewDistinct(plan.NewProject(src, 0, 1)), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(7))
			for ts := int64(0); ts < 120; ts++ {
				d.push(0, ts, rndTuple(r)...)
			}
			d.advance(200)
		})
}

func TestConformanceGroupBy(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
			return plan.NewGroupBy(src, []int{1},
				operator.AggSpec{Kind: operator.Count},
				operator.AggSpec{Kind: operator.Sum, Col: 2},
				operator.AggSpec{Kind: operator.Min, Col: 2},
				operator.AggSpec{Kind: operator.Max, Col: 2},
			), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(8))
			for ts := int64(0); ts < 120; ts++ {
				d.push(0, ts, rndTuple(r)...)
				if ts%17 == 0 {
					d.advance(ts + 1)
				}
			}
			d.advance(250)
		})
}

// TestConformanceMinMaxOverNaN: a CQL MIN/MAX/SUM/AVG group-by whose groups
// see NaN durations (two payloads), infinities of both signs (meeting in one
// window), both zeros and 1 beside 1.0 arrive and expire must agree with the
// reference at every τ. A NaN once stayed in the MIN multiset after it
// expired, so the group's MIN read NaN for good; SUM and AVG did the same
// with a NaN or an infinity in their running sum.
func TestConformanceMinMaxOverNaN(t *testing.T) {
	cat := cql.Catalog{Streams: map[string]cql.StreamDef{"l0": {ID: 0, Schema: trace.Schema()}}}
	durs := []float64{2, 1, 3, math.Copysign(0, -1), 0, 1.5}
	nans := map[int64]float64{
		5: math.NaN(), 23: math.Float64frombits(0x7FF8_0000_0000_00FF),
		31: math.Inf(1), 35: math.Inf(-1),
	}
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			n, err := cql.Parse("SELECT protocol, MIN(duration), MAX(duration), COUNT(*), SUM(duration), AVG(duration) FROM l0 [RANGE 10] GROUP BY protocol", cat)
			if err != nil {
				t.Fatal(err)
			}
			return n, nil
		},
		func(d *driver, _ []*relation.Table) {
			for ts := int64(0); ts < 60; ts++ {
				dur := tuple.Float(durs[ts%int64(len(durs))])
				if ts%5 == 2 {
					dur = tuple.Int(ts % 3) // an int beside the integral floats
				}
				if f, ok := nans[ts]; ok {
					dur = tuple.Float(f)
				}
				d.push(0, ts, tuple.Int(ts), dur, tuple.String_(protos[ts%2]), tuple.Int(ts%7), tuple.Int(1), tuple.Int(2))
				if ts%13 == 0 {
					d.advance(ts + 1)
				}
			}
			d.advance(100)
		})
}

func TestConformanceNegationOverlapping(t *testing.T) {
	// Figure 8 Query 3: negation of two links on srcIP, heavy value overlap
	// (frequent premature expirations).
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 22}, linkSchema())
			return plan.NewNegate(a, b, []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(9))
			for ts := int64(0); ts < 200; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(400)
		})
}

func TestConformanceNegationDisjoint(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			return plan.NewNegate(a, b, []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(10))
			for ts := int64(0); ts < 150; ts++ {
				vals := rndTuple(r)
				if ts%2 == 1 {
					vals[0] = tuple.Int(vals[0].I + 1000) // disjoint key space
				}
				d.push(int(ts%2), ts, vals...)
			}
			d.advance(300)
		})
}

// TestConformanceNegationEqualTSTwins pins which W1 twin leaves the answer
// when several share a TS: the answer is the youngest max(v1 − v2, 0) in
// arrival order, so after a, b and c arrive at one TS and are all admitted,
// a W2 arrival retracts a. Breaking the tie by admission order — c was
// admitted first, when two W2 copies still held the others out — leaves
// {a, b} where the oracle holds {b, c}.
func TestConformanceNegationEqualTSTwins(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			w1 := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 100}, linkSchema())
			w2 := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
			return plan.NewNegate(w1, w2, []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			row := func(proto string) []tuple.Value {
				return []tuple.Value{tuple.Int(5), tuple.String_(proto), tuple.Int(0)}
			}
			d.push(1, 1, row("w2")...)
			d.push(1, 1, row("w2")...)
			for _, p := range []string{"a", "b", "c"} {
				d.push(0, 2, row(p)...)
			}
			d.advance(11)
			d.push(1, 12, row("w2")...)
			d.advance(30)
		})
}

func TestConformanceIntersect(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 16}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 24}, linkSchema())
			// Project to a narrow schema so full-tuple matches happen.
			return plan.NewIntersect(plan.NewProject(a, 0), plan.NewProject(b, 0)), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(11))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestConformanceQuery4Shape(t *testing.T) {
	// Figure 8 Query 4: distinct srcIP per link, then join on srcIP.
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			dst := func(id int) *plan.Node {
				src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
				return plan.NewDistinct(plan.NewProject(src, 0))
			}
			return plan.NewJoin(dst(0), dst(1), []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(12))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestConformanceQuery5PushDown(t *testing.T) {
	// Query 5 with negation below the join (Figure 6 right shape).
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			neg := plan.NewNegate(a, b, []int{0}, []int{0})
			sel := plan.NewSelect(c, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			return plan.NewJoin(neg, sel, []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(13))
			for ts := int64(0); ts < 180; ts++ {
				d.push(int(ts%3), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestConformanceQuery5PullUp(t *testing.T) {
	// Query 5 with negation above the join (Figure 6 left shape).
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			sel := plan.NewSelect(c, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			join := plan.NewJoin(a, sel, []int{0}, []int{0})
			return plan.NewNegate(join, b, []int{0}, []int{0}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(14))
			for ts := int64(0); ts < 180; ts++ {
				d.push(int(ts%3), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestConformanceNRRJoin(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			tbl := relation.NewNRR("companies", tuple.MustSchema(
				tuple.Column{Name: "sym", Kind: tuple.KindInt},
				tuple.Column{Name: "name", Kind: tuple.KindString},
			))
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
			return plan.NewNRRJoin(src, tbl, []int{0}, []int{0}), []*relation.Table{tbl}
		},
		func(d *driver, tables []*relation.Table) {
			tbl := tables[0]
			r := rand.New(rand.NewSource(15))
			names := []string{"Sun", "IBM", "DEC", "SGI"}
			ts := int64(0)
			for i := 0; i < 120; i++ {
				ts++
				if i%9 == 3 {
					row := []tuple.Value{tuple.Int(int64(r.Intn(6))), tuple.String_(names[r.Intn(len(names))])}
					d.table(tbl, relation.Update{Kind: relation.Insert, TS: ts, Row: row})
					continue
				}
				if i%17 == 11 && tbl.Len() > 0 {
					var victim []tuple.Value
					tbl.Scan(func(vals []tuple.Value) bool { victim = append([]tuple.Value(nil), vals...); return false })
					d.table(tbl, relation.Update{Kind: relation.Delete, TS: ts, Row: victim})
					continue
				}
				d.push(0, ts, rndTuple(r)...)
			}
			d.advance(ts + 50)
		})
}

func TestConformanceRelJoin(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			tbl := relation.NewRelation("companies", tuple.MustSchema(
				tuple.Column{Name: "sym", Kind: tuple.KindInt},
				tuple.Column{Name: "name", Kind: tuple.KindString},
			))
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
			return plan.NewRelJoin(src, tbl, []int{0}, []int{0}), []*relation.Table{tbl}
		},
		func(d *driver, tables []*relation.Table) {
			tbl := tables[0]
			r := rand.New(rand.NewSource(16))
			names := []string{"Sun", "IBM"}
			ts := int64(0)
			for i := 0; i < 120; i++ {
				ts++
				if i%7 == 2 {
					row := []tuple.Value{tuple.Int(int64(r.Intn(6))), tuple.String_(names[r.Intn(len(names))])}
					d.table(tbl, relation.Update{Kind: relation.Insert, TS: ts, Row: row})
					continue
				}
				if i%11 == 6 && tbl.Len() > 0 {
					var victim []tuple.Value
					tbl.Scan(func(vals []tuple.Value) bool { victim = append([]tuple.Value(nil), vals...); return false })
					d.table(tbl, relation.Update{Kind: relation.Delete, TS: ts, Row: victim})
					continue
				}
				d.push(0, ts, rndTuple(r)...)
			}
			d.advance(ts + 50)
		})
}

func TestConformanceCountWindow(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.CountBased, Size: 7}, linkSchema())
			return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.NE, Val: tuple.String_("http")}), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(17))
			for ts := int64(0); ts < 100; ts++ {
				d.push(0, ts, rndTuple(r)...)
			}
		})
}

// TestConformanceExpiryHeavy stresses the deliveries the engine originates
// itself, all of which travel as runs: under NT the negatives of one
// ExpireUpTo call (long Advance gaps retire a whole window at once), under
// every strategy the expiration output of eager operators, and count-window
// evictions interleaved with the arrivals that caused them. Eager interval 1,
// same-timestamp bursts, and the view is compared with the Definition-1
// oracle after every event.
func TestConformanceExpiryHeavy(t *testing.T) {
	script := func(streams int) func(d *driver, _ []*relation.Table) {
		return func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(29))
			ts := int64(0)
			for round := 0; round < 12; round++ {
				for tick := 0; tick < 6; tick++ {
					ts += int64(r.Intn(2))
					for k := 1 + r.Intn(4); k > 0; k-- {
						d.push(r.Intn(streams), ts, rndTuple(r)...)
					}
				}
				// A gap the length of a window or more: everything stored so
				// far expires inside one advance.
				ts += int64(8 + r.Intn(24))
				d.advance(ts)
			}
			if v := d.eng.Violations(); v != 0 {
				d.t.Errorf("pattern violations = %d, want 0", v)
			}
		}
	}
	t.Run("time-windows", func(t *testing.T) {
		runConformance(t,
			func() (*plan.Node, []*relation.Table) {
				a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 9}, linkSchema())
				b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
				return plan.NewDistinct(plan.NewProject(plan.NewJoin(a, b, []int{0}, []int{0}), 0, 1)), nil
			}, script(2))
	})
	t.Run("count-window", func(t *testing.T) {
		runConformance(t,
			func() (*plan.Node, []*relation.Table) {
				a := plan.NewSource(0, window.Spec{Type: window.CountBased, Size: 4}, linkSchema())
				b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 11}, linkSchema())
				return plan.NewJoin(a, b, []int{0}, []int{0}), nil
			}, script(2))
	})
	t.Run("negation", func(t *testing.T) {
		runConformance(t,
			func() (*plan.Node, []*relation.Table) {
				a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
				b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 7}, linkSchema())
				return plan.NewNegate(a, b, []int{0}, []int{0}), nil
			}, script(2))
	})
}

func TestConformanceMonotonicStream(t *testing.T) {
	// Selection over an unbounded stream: append-only output.
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			src := plan.NewSource(0, window.Unbounded, linkSchema())
			root := plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
				t.Fatal(err)
			}
			phys, err := plan.Build(root, v.strat, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(phys, Config{})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(18))
			want := 0
			for ts := int64(0); ts < 200; ts++ {
				vals := rndTuple(r)
				if vals[1].S == "ftp" {
					want++
				}
				if err := eng.Push(0, ts, vals...); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := eng.Queries()[0].ResultCount(); n != want {
				t.Fatalf("monotonic count = %d, want %d", n, want)
			}
			if eng.Stats().Retracted != 0 {
				t.Fatal("monotonic queries must not retract")
			}
		})
	}
}

// TestConformanceFuzzedPlans drives random traffic through a set of randomly
// composed (but valid) plans, as a property-style safety net beyond the
// paper's fixed query shapes.
func TestConformanceFuzzedPlans(t *testing.T) {
	shapes := []func(r *rand.Rand) *plan.Node{
		func(r *rand.Rand) *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			return plan.NewJoin(plan.NewProject(a, 0, 2), plan.NewProject(b, 0, 2), []int{0}, []int{0})
		},
		func(r *rand.Rand) *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			return plan.NewDistinct(plan.NewUnion(plan.NewProject(a, 0), plan.NewProject(b, 0)))
		},
		func(r *rand.Rand) *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			neg := plan.NewNegate(a, b, []int{0, 1}, []int{0, 1})
			return plan.NewSelect(neg, operator.ColConst{Col: 2, Op: operator.LT, Val: tuple.Int(60)})
		},
		func(r *rand.Rand) *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: int64(5 + r.Intn(20))}, linkSchema())
			u := plan.NewUnion(a, b)
			return plan.NewGroupBy(plan.NewSelect(u, operator.ColConst{Col: 2, Op: operator.GE, Val: tuple.Int(20)}),
				[]int{0}, operator.AggSpec{Kind: operator.Count}, operator.AggSpec{Kind: operator.Avg, Col: 2})
		},
	}
	for seed := int64(100); seed < 104; seed++ {
		for si, shape := range shapes {
			t.Run(fmt.Sprintf("shape%d/seed%d", si, seed), func(t *testing.T) {
				runConformance(t,
					func() (*plan.Node, []*relation.Table) {
						return shape(rand.New(rand.NewSource(seed))), nil
					},
					func(d *driver, _ []*relation.Table) {
						d.every = 3 // check every third event for speed
						r := rand.New(rand.NewSource(seed * 7))
						for ts := int64(0); ts < 120; ts++ {
							d.push(int(ts%2), ts, rndTuple(r)...)
						}
						d.advance(250)
					})
			})
		}
	}
}

// TestConformanceOptimizedPlans runs the optimizer over the Query 5 shapes
// and checks the chosen plans still satisfy Definition 1 under every
// strategy — rewrites must preserve semantics, not just cost.
func TestConformanceOptimizedPlans(t *testing.T) {
	build := func() (*plan.Node, []*relation.Table) {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
		b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
		c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
		neg := plan.NewNegate(a, b, []int{0}, []int{0})
		sel := plan.NewSelect(c, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
		return plan.NewJoin(neg, sel, []int{0}, []int{0}), nil
	}
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			root, _ := build()
			best, err := plan.Optimize(root, v.strat, plan.DefaultStats())
			if err != nil {
				t.Fatal(err)
			}
			phys, err := plan.Build(best, v.strat, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(phys, Config{LazyInterval: 7})
			if err != nil {
				t.Fatal(err)
			}
			// The reference evaluates the ORIGINAL plan; the optimized plan
			// must compute the same answer. The negation pull-up rewrite is
			// only multiset-exact when at most one live tuple per key exists
			// on the joined streams, so the workload uses unique keys per
			// window lifetime on streams 0 and 2.
			orig, _ := build()
			if err := plan.Annotate(orig, plan.DefaultStats()); err != nil {
				t.Fatal(err)
			}
			d := &driver{t: t, eng: eng, ref: reference.New(orig), every: 1}
			r := rand.New(rand.NewSource(99))
			for ts := int64(0); ts < 150; ts++ {
				vals := rndTuple(r)
				link := int(ts % 3)
				if link != 1 {
					vals[0] = tuple.Int(ts) // unique key per arrival on 0 and 2
				}
				d.push(link, ts, vals...)
			}
			d.advance(300)
		})
	}
}

// TestConformanceRunningAggregate covers Section 3.1's distributive
// aggregates over unbounded streams: group-by with no window stores no
// input and its running values match the reference at all times.
func TestConformanceRunningAggregate(t *testing.T) {
	runConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Unbounded, linkSchema())
			b := plan.NewSource(1, window.Unbounded, linkSchema())
			return plan.NewGroupBy(plan.NewUnion(a, b), []int{1},
				operator.AggSpec{Kind: operator.Count},
				operator.AggSpec{Kind: operator.Sum, Col: 2},
			), nil
		},
		func(d *driver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(23))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(10000) // nothing ever expires
			// The engine must not be buffering the stream.
			if d.eng.stateTuples() > 64 {
				d.t.Fatalf("running aggregate is buffering input: %d tuples", d.eng.stateTuples())
			}
		})
}
