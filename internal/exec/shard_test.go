package exec

// Sharded-execution conformance: for every paper query and every strategy,
// the key-partitioned executor must produce, after every event, exactly the
// view the sequential engine produces — which itself must match the
// reference evaluator (Definition 1/2). Equivalence is checked three-way so
// a divergence pinpoints whether sharding or the base engine broke.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// shardDriver pushes each event to the sequential engine, the sharded
// executor, and the reference evaluator, then compares all three.
type shardDriver struct {
	t      *testing.T
	seq    *Engine
	sh     *Engine
	ref    *reference.Evaluator
	every  int
	events int
}

func (d *shardDriver) push(stream int, ts int64, vals ...tuple.Value) {
	d.t.Helper()
	if err := d.seq.Push(stream, ts, vals...); err != nil {
		d.t.Fatalf("sequential Push(%d,%d): %v", stream, ts, err)
	}
	if err := d.sh.Push(stream, ts, vals...); err != nil {
		d.t.Fatalf("sharded Push(%d,%d): %v", stream, ts, err)
	}
	d.ref.Push(stream, ts, vals...)
	d.check(ts)
}

func (d *shardDriver) table(tbl *relation.Table, u relation.Update) {
	d.t.Helper()
	// The table is shared between the sequential and partitioned engines,
	// so only the partitioned one applies the mutation; the sequential engine
	// just routes it (both see the same post-update rows). The sequential
	// engine must run its pending expirations against the pre-update table
	// first — tableUpdate's contract — so advance it before the shared apply.
	if err := d.seq.Advance(u.TS); err != nil {
		d.t.Fatalf("sequential Advance(%d): %v", u.TS, err)
	}
	if err := d.sh.ApplyTableUpdate(tbl, u); err != nil {
		d.t.Fatalf("sharded ApplyTableUpdate: %v", err)
	}
	if err := d.seq.routeTableUpdate(tbl, u); err != nil {
		d.t.Fatalf("sequential routeTableUpdate: %v", err)
	}
	d.seq.settle()
	d.ref.PushTable(tbl, u)
	d.check(u.TS)
}

func (d *shardDriver) advance(ts int64) {
	d.t.Helper()
	if err := d.seq.Advance(ts); err != nil {
		d.t.Fatalf("sequential Advance(%d): %v", ts, err)
	}
	if err := d.sh.Advance(ts); err != nil {
		d.t.Fatalf("sharded Advance(%d): %v", ts, err)
	}
	d.check(ts)
}

func (d *shardDriver) check(now int64) {
	d.t.Helper()
	d.events++
	if d.every > 1 && d.events%d.every != 0 {
		return
	}
	shGot, err := d.sh.Queries()[0].Snapshot()
	if err != nil {
		d.t.Fatalf("sharded Snapshot: %v", err)
	}
	seqGot, err := d.seq.Queries()[0].Snapshot()
	if err != nil {
		d.t.Fatalf("sequential Snapshot: %v", err)
	}
	want, err := d.ref.Eval(now)
	if err != nil {
		d.t.Fatalf("reference: %v", err)
	}
	if !reference.SameBag(reference.RowsOf(shGot), want) {
		d.t.Fatalf("sharded view diverged from reference at t=%d\nsharded (%d rows):\n%s\nreference (%d rows):\n%s",
			now, len(shGot), reference.Render(reference.RowsOf(shGot)), len(want), reference.Render(want))
	}
	if !reference.SameBag(reference.RowsOf(shGot), reference.RowsOf(seqGot)) {
		d.t.Fatalf("sharded view diverged from sequential at t=%d\nsharded (%d rows):\n%s\nsequential (%d rows):\n%s",
			now, len(shGot), reference.Render(reference.RowsOf(shGot)), len(seqGot), reference.Render(reference.RowsOf(seqGot)))
	}
}

// openAt opens phys through the one constructor at exactly n shards (1: the
// plain engine) and fails the test if the plan fell back.
func openAt(t testing.TB, phys *plan.Physical, cfg Config, n int) *Engine {
	t.Helper()
	ex, reason, err := Open(QuerySpec{Phys: phys, OnEmit: cfg.OnEmit}, cfg, n)
	if err != nil {
		t.Fatalf("Open at %d shards: %v", n, err)
	}
	t.Cleanup(func() { ex.Close() })
	if reason != "" || ex.Shards() != n {
		t.Fatalf("Open at %d shards returned %d (%s)", n, ex.Shards(), reason)
	}
	return ex
}

// runShardConformance drives the script for every core strategy with a
// 4-way sharded executor alongside a sequential engine and the reference.
func runShardConformance(t *testing.T, build func() (*plan.Node, []*relation.Table), script func(d *shardDriver, tables []*relation.Table)) {
	t.Helper()
	for _, v := range []variant{
		{"NT", plan.NT, plan.Options{}},
		{"DIRECT", plan.Direct, plan.Options{}},
		{"UPA", plan.UPA, plan.Options{}},
	} {
		t.Run(v.name, func(t *testing.T) {
			root, tables := build()
			if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
				t.Fatalf("Annotate: %v", err)
			}
			cfg := Config{LazyInterval: 7, EagerInterval: 1}
			seqPhys, err := plan.Build(root, v.strat, v.opts)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			seq, err := New(seqPhys, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			shPhys, err := plan.Build(root, v.strat, v.opts)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			sh := openAt(t, shPhys, cfg, 4)
			d := &shardDriver{t: t, seq: seq, sh: sh, ref: reference.New(root), every: 1}
			script(d, tables)
		})
	}
}

func TestShardedQuery1(t *testing.T) {
	// Figure 8 Query 1: σ(protocol=ftp) on both links, join on srcIP.
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			sel := func(id int) *plan.Node {
				src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
				return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			}
			return plan.NewJoin(sel(0), sel(1), []int{0}, []int{0}), nil
		},
		func(d *shardDriver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(41))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(250)
		})
}

func TestShardedQuery2Distinct(t *testing.T) {
	// Figure 8 Query 2: distinct source IPs on one link.
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			return plan.NewDistinct(plan.NewProject(src, 0)), nil
		},
		func(d *shardDriver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(42))
			for ts := int64(0); ts < 150; ts++ {
				d.push(0, ts, rndTuple(r)...)
				if ts%13 == 0 {
					d.advance(ts + 1)
				}
			}
			d.advance(300)
		})
}

func TestShardedQuery3Negation(t *testing.T) {
	// Figure 8 Query 3: negation of two links on srcIP with heavy overlap.
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 22}, linkSchema())
			return plan.NewNegate(a, b, []int{0}, []int{0}), nil
		},
		func(d *shardDriver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(43))
			for ts := int64(0); ts < 200; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(400)
		})
}

func TestShardedQuery4DistinctJoin(t *testing.T) {
	// Figure 8 Query 4: distinct srcIP per link, then join on srcIP.
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			dst := func(id int) *plan.Node {
				src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
				return plan.NewDistinct(plan.NewProject(src, 0))
			}
			return plan.NewJoin(dst(0), dst(1), []int{0}, []int{0}), nil
		},
		func(d *shardDriver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(44))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestShardedQuery5(t *testing.T) {
	// Query 5 (Figure 6 push-down shape): join(negate(W1,W2), σ(W3)).
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			neg := plan.NewNegate(a, b, []int{0}, []int{0})
			sel := plan.NewSelect(c, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			return plan.NewJoin(neg, sel, []int{0}, []int{0}), nil
		},
		func(d *shardDriver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(45))
			for ts := int64(0); ts < 180; ts++ {
				d.push(int(ts%3), ts, rndTuple(r)...)
			}
			d.advance(300)
		})
}

func TestShardedGroupByOnJoinKey(t *testing.T) {
	// Aggregation grouped on the join key: exercises the keyed view merge.
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 12}, linkSchema())
			j := plan.NewJoin(a, b, []int{0}, []int{0})
			return plan.NewGroupBy(j, []int{0},
				operator.AggSpec{Kind: operator.Count},
				operator.AggSpec{Kind: operator.Sum, Col: 2},
			), nil
		},
		func(d *shardDriver, _ []*relation.Table) {
			r := rand.New(rand.NewSource(46))
			for ts := int64(0); ts < 150; ts++ {
				d.push(int(ts%2), ts, rndTuple(r)...)
				if ts%19 == 0 {
					d.advance(ts + 1)
				}
			}
			d.advance(300)
		})
}

func TestShardedRelJoinFanout(t *testing.T) {
	// Table updates are fanned to every shard while arrivals stay routed.
	runShardConformance(t,
		func() (*plan.Node, []*relation.Table) {
			tbl := relation.NewRelation("companies", tuple.MustSchema(
				tuple.Column{Name: "sym", Kind: tuple.KindInt},
				tuple.Column{Name: "name", Kind: tuple.KindString},
			))
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 16}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
			j := plan.NewJoin(a, b, []int{0}, []int{0})
			return plan.NewRelJoin(j, tbl, []int{0}, []int{0}), []*relation.Table{tbl}
		},
		func(d *shardDriver, tables []*relation.Table) {
			tbl := tables[0]
			r := rand.New(rand.NewSource(47))
			names := []string{"Sun", "IBM", "DEC"}
			ts := int64(0)
			for i := 0; i < 140; i++ {
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
				d.push(int(ts%2), ts, rndTuple(r)...)
			}
			d.advance(ts + 50)
		})
}

// TestShardedPropertyRandomTraces is the property-style net: random
// partitionable plan shapes, random shard counts, random keyed traffic —
// sharded and sequential answers must agree with the reference throughout.
func TestShardedPropertyRandomTraces(t *testing.T) {
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
			j := plan.NewJoin(a, b, []int{0}, []int{0})
			return plan.NewGroupBy(j, []int{0},
				operator.AggSpec{Kind: operator.Count}, operator.AggSpec{Kind: operator.Sum, Col: 2})
		},
	}
	strategies := []plan.Strategy{plan.NT, plan.Direct, plan.UPA}
	for seed := int64(300); seed < 304; seed++ {
		for si, shape := range shapes {
			t.Run(fmt.Sprintf("shape%d/seed%d", si, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				root := shape(r)
				if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
					t.Fatalf("Annotate: %v", err)
				}
				strat := strategies[r.Intn(len(strategies))]
				shards := 2 + r.Intn(4)
				cfg := Config{LazyInterval: int64(1 + r.Intn(9)), EagerInterval: 1}
				seqPhys, err := plan.Build(root, strat, plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				seq, err := New(seqPhys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				shPhys, err := plan.Build(root, strat, plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sh := openAt(t, shPhys, cfg, shards)
				d := &shardDriver{t: t, seq: seq, sh: sh, ref: reference.New(root), every: 5}
				tr := rand.New(rand.NewSource(seed * 13))
				ts := int64(0)
				for i := 0; i < 160; i++ {
					ts += int64(tr.Intn(3)) // bursts share timestamps
					d.push(tr.Intn(2), ts, rndTuple(tr)...)
				}
				d.advance(ts + 100)
			})
		}
	}
}

// TestShardedBatchedIngest drives the sharded executor through PushBatch
// with mixed batch sizes and checks the final answer.
func TestShardedBatchedIngest(t *testing.T) {
	root := plan.NewJoin(
		plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema()),
		plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema()),
		[]int{0}, []int{0})
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := openAt(t, phys, Config{LazyInterval: 5}, 3)
	ref := reference.New(root)
	r := rand.New(rand.NewSource(71))
	var batch []Arrival
	ts := int64(0)
	for i := 0; i < 400; i++ {
		ts += int64(r.Intn(2))
		vals := rndTuple(r)
		batch = append(batch, Arrival{Stream: i % 2, TS: ts, Vals: vals})
		ref.Push(i%2, ts, vals...)
		if len(batch) >= 1+r.Intn(60) {
			if err := sh.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if err := sh.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	got, err := sh.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Eval(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reference.SameBag(reference.RowsOf(got), want) {
		t.Fatalf("batched sharded run diverged:\ngot:\n%s\nwant:\n%s",
			reference.Render(reference.RowsOf(got)), reference.Render(want))
	}
	if st := sh.Stats(); st.Arrivals != 400 {
		t.Fatalf("arrivals = %d, want 400", st.Arrivals)
	}
}

// TestShardedFallback covers the plans PartitionKey must reject: Open hands
// back the ordinary engine, reports why, and the answer stays correct.
func TestShardedFallback(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *plan.Node
		reason string
	}{
		{
			"count-window",
			func() *plan.Node {
				src := plan.NewSource(0, window.Spec{Type: window.CountBased, Size: 7}, linkSchema())
				return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.NE, Val: tuple.String_("http")})
			},
			"count-based window",
		},
		{
			"global-aggregate",
			func() *plan.Node {
				src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
				return plan.NewGroupBy(src, nil, operator.AggSpec{Kind: operator.Count})
			},
			"group-by aggregates globally",
		},
		{
			"cross-key",
			func() *plan.Node {
				a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
				b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
				inner := plan.NewJoin(a, b, []int{0}, []int{0})
				c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
				return plan.NewJoin(inner, c, []int{2}, []int{0})
			},
			"do not trace to a common column",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := tc.build()
			if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
				t.Fatal(err)
			}
			phys, err := plan.Build(root, plan.UPA, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sh, reason, err := Open(QuerySpec{Phys: phys}, Config{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if sh.Shards() != 1 {
				t.Fatalf("Open returned Shards() = %d, want a plain engine", sh.Shards())
			}
			if !strings.Contains(reason, tc.reason) {
				t.Fatalf("fallback reason = %q, want mention of %q", reason, tc.reason)
			}
			// The fallback must still compute the right answer.
			ref := reference.New(root)
			r := rand.New(rand.NewSource(81))
			for ts := int64(0); ts < 60; ts++ {
				vals := rndTuple(r)
				id := 0
				if len(root.Inputs) == 2 && root.Kind == plan.Join {
					id = int(ts % 3)
				}
				if err := sh.Push(id, ts, vals...); err != nil {
					t.Fatal(err)
				}
				ref.Push(id, ts, vals...)
			}
			got, err := sh.Queries()[0].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Eval(59)
			if err != nil {
				t.Fatal(err)
			}
			if !reference.SameBag(reference.RowsOf(got), want) {
				t.Fatalf("fallback diverged:\ngot:\n%s\nwant:\n%s",
					reference.Render(reference.RowsOf(got)), reference.Render(want))
			}
		})
	}
}

// TestShardedMetricLabels checks that each partition's operator series carry
// its shard label in the engine's registry, and that the partitions' inputs
// add up to the arrivals.
func TestShardedMetricLabels(t *testing.T) {
	root := plan.NewJoin(
		plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema()),
		plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema()),
		[]int{0}, []int{0})
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sh := openAt(t, phys, Config{Metrics: reg}, 2)
	r := rand.New(rand.NewSource(91))
	for ts := int64(0); ts < 80; ts++ {
		if err := sh.Push(int(ts%2), ts, rndTuple(r)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var total int64
	for _, shard := range []string{"0", "1"} {
		key := MetricOpInPos + `{id="0",op="join",shard="` + shard + `"}`
		v, ok := snap.Counters[key]
		if !ok {
			t.Fatalf("missing series %s in %v", key, snap.Counters)
		}
		total += v
	}
	if total != 80 || snap.Counters[MetricArrivals] != 80 {
		t.Fatalf("shard join inputs sum = %d, arrivals = %d, want 80", total, snap.Counters[MetricArrivals])
	}
}

// TestPushBatchMatchesPush proves batched ingest is semantically identical
// to tuple-at-a-time ingest on the sequential engine.
func TestPushBatchMatchesPush(t *testing.T) {
	root := plan.NewDistinct(plan.NewProject(
		plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema()), 0, 1))
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	mkEng := func() *Engine {
		phys, err := plan.Build(root, plan.UPA, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(phys, Config{LazyInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	one, batched := mkEng(), mkEng()
	r := rand.New(rand.NewSource(61))
	var batch []Arrival
	ts := int64(0)
	for i := 0; i < 300; i++ {
		ts += int64(r.Intn(2))
		vals := rndTuple(r)
		if err := one.Push(0, ts, vals...); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, Arrival{Stream: 0, TS: ts, Vals: vals})
		if len(batch) == 7 {
			if err := batched.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if err := batched.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	a, err := one.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reference.SameBag(reference.RowsOf(a), reference.RowsOf(b)) {
		t.Fatalf("batched snapshot diverged:\npush:\n%s\nbatch:\n%s",
			reference.Render(reference.RowsOf(a)), reference.Render(reference.RowsOf(b)))
	}
	sa, sb := one.Stats(), batched.Stats()
	if sa.Arrivals != sb.Arrivals || sa.Emitted != sb.Emitted || sa.Retracted != sb.Retracted {
		t.Fatalf("stats diverged: push %+v vs batch %+v", sa, sb)
	}
}
