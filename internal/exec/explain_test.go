package exec

// EXPLAIN ANALYZE conformance: for every paper query the analyzed tree must
// render every operator with its update-pattern class and live counters, and
// the sharded executor's merged counters must agree with the sequential
// engine's on NET output totals (gross emission/retraction traffic may
// legitimately differ under strict negation — DESIGN.md "Sharded execution").

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/window"
)

// paperQueryPlans are the five Figure 8 query shapes used across the test
// suite, as plan builders.
func paperQueryPlans() []struct {
	name  string
	build func() *plan.Node
} {
	sel := func(id int, size int64) *plan.Node {
		src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: size}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	dst := func(id int, size int64) *plan.Node {
		src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: size}, linkSchema())
		return plan.NewDistinct(plan.NewProject(src, 0))
	}
	return []struct {
		name  string
		build func() *plan.Node
	}{
		{"q1", func() *plan.Node { return plan.NewJoin(sel(0, 20), sel(1, 20), []int{0}, []int{0}) }},
		{"q2", func() *plan.Node { return dst(0, 15) }},
		{"q3", func() *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 14}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 22}, linkSchema())
			return plan.NewNegate(a, b, []int{0}, []int{0})
		}},
		{"q4", func() *plan.Node { return plan.NewJoin(dst(0, 15), dst(1, 15), []int{0}, []int{0}) }},
		{"q5", func() *plan.Node {
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			c := plan.NewSource(2, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema())
			neg := plan.NewNegate(a, b, []int{0}, []int{0})
			s := plan.NewSelect(c, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
			return plan.NewJoin(neg, s, []int{0}, []int{0})
		}},
	}
}

// opNets collects (name, OutPos-OutNeg) per operator node in pre-order.
func opNets(t *plan.ExplainTree) (names []string, nets []int64) {
	t.Walk(func(n *plan.ExplainNode) {
		if n.ID < 0 {
			return
		}
		names = append(names, n.Name)
		if n.Stats != nil {
			nets = append(nets, n.Stats.OutPos-n.Stats.OutNeg)
		} else {
			nets = append(nets, 0)
		}
	})
	return
}

// leafInPos sums positive input traffic of operators that consume only
// source leaves, keyed by node id — the arrival-conservation measure.
func leafInPos(t *plan.ExplainTree) map[int]int64 {
	out := map[int]int64{}
	t.Walk(func(n *plan.ExplainNode) {
		if n.ID < 0 || n.Stats == nil {
			return
		}
		for _, c := range n.Children {
			if c.Source == nil {
				return
			}
		}
		out[n.ID] = n.Stats.InPos
	})
	return out
}

func TestExplainAnalyzePaperQueries(t *testing.T) {
	for _, q := range paperQueryPlans() {
		for _, v := range []variant{
			{"NT", plan.NT, plan.Options{}},
			{"DIRECT", plan.Direct, plan.Options{}},
			{"UPA", plan.UPA, plan.Options{}},
		} {
			t.Run(q.name+"/"+v.name, func(t *testing.T) {
				root := q.build()
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

				streams := 1
				for _, src := range seqPhys.Sources {
					if src.StreamID+1 > streams {
						streams = src.StreamID + 1
					}
				}
				r := rand.New(rand.NewSource(7))
				for ts := int64(0); ts < 150; ts++ {
					vals := rndTuple(r)
					stream := int(ts) % streams
					if err := seq.Push(stream, ts, vals...); err != nil {
						t.Fatalf("seq Push: %v", err)
					}
					if err := sh.Push(stream, ts, vals...); err != nil {
						t.Fatalf("sharded Push: %v", err)
					}
				}
				if err := seq.Sync(); err != nil {
					t.Fatalf("seq Sync: %v", err)
				}
				if err := sh.Sync(); err != nil {
					t.Fatalf("sharded Sync: %v", err)
				}

				seqTree := seq.Queries()[0].Explain(true)
				shTree := sh.Queries()[0].Explain(true)

				// Both trees carry the analyze header and agree on the plan.
				if !seqTree.Analyzed || !shTree.Analyzed {
					t.Fatal("tree not analyzed")
				}
				if seqTree.Shards != 1 || shTree.Shards != 4 {
					t.Fatalf("shards = %d / %d", seqTree.Shards, shTree.Shards)
				}
				if seqTree.Watermark != seqTree.Clock {
					t.Fatalf("seq watermark %d != clock %d after Sync", seqTree.Watermark, seqTree.Clock)
				}
				if shTree.Watermark != shTree.Clock {
					t.Fatalf("sharded watermark %d != clock %d after Sync", shTree.Watermark, shTree.Clock)
				}

				// Every operator node renders with a pattern class, a stats
				// cell, and live input traffic.
				var sawInput bool
				seqTree.Walk(func(n *plan.ExplainNode) {
					if n.Pattern.String() == "" {
						t.Errorf("node %s missing pattern class", n.Name)
					}
					if n.ID < 0 {
						return
					}
					if n.Stats == nil {
						t.Fatalf("analyzed node %s has no stats", n.Name)
					}
					if n.Stats.InPos > 0 {
						sawInput = true
					}
				})
				if !sawInput {
					t.Fatal("no operator recorded input traffic")
				}

				// Under NT every expiration travels the plan as an explicit
				// negative tuple, so NET output totals per operator
				// (pos − neg) must agree between the sequential run and the
				// shard-merged counters even where gross traffic differs
				// (DESIGN.md "Sharded execution"). DIRECT and UPA expire
				// state internally by timestamp without emitting a negative
				// for every drop, which makes per-operator nets depend on
				// maintenance-pass cadence — for those, assert arrival
				// conservation instead: leaf operators see exactly the
				// pushed tuples, summed over shards.
				seqNames, seqNets := opNets(seqTree)
				shNames, shNets := opNets(shTree)
				if strings.Join(seqNames, ";") != strings.Join(shNames, ";") {
					t.Fatalf("tree shapes differ:\n%v\n%v", seqNames, shNames)
				}
				if v.strat == plan.NT {
					for i := range seqNets {
						if seqNets[i] != shNets[i] {
							t.Errorf("node %s net output: sequential %d, sharded %d",
								seqNames[i], seqNets[i], shNets[i])
						}
					}
				}
				seqLeaf := leafInPos(seqTree)
				shLeaf := leafInPos(shTree)
				for id, n := range seqLeaf {
					if shLeaf[id] != n {
						t.Errorf("leaf id=%d arrivals: sequential %d, sharded %d", id, n, shLeaf[id])
					}
				}

				// The rendered text must carry the header and counter lines.
				var b strings.Builder
				if err := shTree.WriteText(&b); err != nil {
					t.Fatal(err)
				}
				out := b.String()
				for _, want := range []string{"analyze:   clock=", "shards=4", "in +"} {
					if !strings.Contains(out, want) {
						t.Fatalf("ANALYZE output missing %q:\n%s", want, out)
					}
				}
			})
		}
	}
}
