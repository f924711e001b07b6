package exec

// The executor contract, once: whatever Open returns — the plain engine at
// one shard, three key partitions of one engine at three — answers the same
// schedule the same way, resumes from its own checkpoints, refuses another
// partition count's before touching state, and is closed by the same rule.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// contractPlan is one query of the contract table: a fresh logical plan per
// call, with the table it joins when it has one.
type contractPlan struct {
	name    string
	streams int
	build   func() (*plan.Node, *relation.Table)
}

func contractPlans() []contractPlan {
	paper := func(q ckptQuery) contractPlan {
		return contractPlan{name: q.name, streams: q.streams,
			build: func() (*plan.Node, *relation.Table) { return q.build(), nil }}
	}
	return []contractPlan{
		paper(ckptQueries()[0]), // Q1: join of ftp-selects
		paper(ckptQueries()[3]), // Q4: join of distincts
		{name: "Q6-group-by", streams: 1, build: func() (*plan.Node, *relation.Table) {
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 18}, linkSchema())
			return plan.NewGroupBy(src, []int{0},
				operator.AggSpec{Kind: operator.Count},
				operator.AggSpec{Kind: operator.Sum, Col: 2}), nil
		}},
		{name: "rel-join", streams: 2, build: func() (*plan.Node, *relation.Table) {
			tbl := relation.NewRelation("companies", companies())
			a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 16}, linkSchema())
			b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 20}, linkSchema())
			return plan.NewRelJoin(plan.NewJoin(a, b, []int{0}, []int{0}), tbl, []int{0}, []int{0}), tbl
		}},
		{name: "nrr-join", streams: 1, build: func() (*plan.Node, *relation.Table) {
			tbl := relation.NewNRR("companies", companies())
			src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 16}, linkSchema())
			return plan.NewNRRJoin(src, tbl, []int{0}, []int{0}), tbl
		}},
	}
}

// companies is the schema of the contract plans' table.
func companies() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
	)
}

// contractRun is one opened executor with the table its plan reads.
type contractRun struct {
	ex  *Engine
	tbl *relation.Table
}

func openContract(t *testing.T, p contractPlan, strat plan.Strategy, shards int) contractRun {
	t.Helper()
	return openContractCfg(t, p, strat, shards, Config{LazyInterval: 7, EagerInterval: 1})
}

func openContractCfg(t *testing.T, p contractPlan, strat plan.Strategy, shards int, cfg Config) contractRun {
	t.Helper()
	root, tbl := p.build()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	phys, err := plan.Build(root, strat, plan.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return contractRun{openAt(t, phys, cfg, shards), tbl}
}

// contractCut is where the contract tests checkpoint the schedule: past the
// Advance gap, mid-refill.
const contractCut = 120

// contractSteps is the schedule: arrivals round-robined over the streams,
// table updates when the plan has a table, and one Advance gap longer than
// every window in the table, so the answer drains and refills. The rows are
// keyed 0 and 1, and at the cut of TestExecutorContract each key holds two
// distinct rows and a duplicate, inserted out of key order (z, z, x).
type contractStep struct {
	arrival *Arrival
	update  *relation.Update
	advance int64
}

func contractSteps(p contractPlan) []contractStep {
	r := rand.New(rand.NewSource(23))
	names := []string{"y", "z", "z", "x"}
	_, tbl := p.build()
	var inserted [][]tuple.Value
	var deleted int
	var steps []contractStep
	ts := int64(0)
	for i := 0; i < 180; i++ {
		ts += int64(r.Intn(2))
		switch {
		case i == 90:
			ts += 40 // longer than the widest window (20)
			steps = append(steps, contractStep{advance: ts})
		case tbl != nil && i%33 == 24:
			// Retroactive delete of the oldest row still in the table.
			steps = append(steps, contractStep{update: &relation.Update{Kind: relation.Delete, TS: ts, Row: inserted[0]}})
			inserted = inserted[1:]
			deleted++
		case tbl != nil && i%11 == 2:
			n := len(inserted) + deleted
			row := []tuple.Value{tuple.Int(int64(n % 2)), tuple.String_(names[n/2%len(names)])}
			inserted = append(inserted, row)
			steps = append(steps, contractStep{update: &relation.Update{Kind: relation.Insert, TS: ts, Row: row}})
		default:
			steps = append(steps, contractStep{arrival: &Arrival{Stream: i % p.streams, TS: ts, Vals: rndTuple(r)}})
		}
	}
	return steps
}

func (c contractRun) play(t *testing.T, steps []contractStep) {
	t.Helper()
	for _, s := range steps {
		var err error
		switch {
		case s.arrival != nil:
			err = c.ex.Push(s.arrival.Stream, s.arrival.TS, s.arrival.Vals...)
		case s.update != nil:
			err = c.ex.ApplyTableUpdate(c.tbl, *s.update)
		default:
			err = c.ex.Advance(s.advance)
		}
		if err != nil {
			t.Fatalf("step %+v: %v", s, err)
		}
	}
}

// lookups renders LookupKey for every value of the key column's domain.
func lookups(t *testing.T, ex *Engine) string {
	t.Helper()
	if err := ex.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	var out []string
	for k := int64(0); k < 7; k++ {
		rows, ok := ex.Queries()[0].LookupKey(tuple.Tuple{Vals: []tuple.Value{tuple.Int(k)}}.Key([]int{0}))
		strs := make([]string, 0, len(rows))
		for _, r := range rows {
			strs = append(strs, r.String())
		}
		sort.Strings(strs)
		out = append(out, fmt.Sprintf("%d:%v:%v", k, ok, strs))
	}
	return fmt.Sprint(out)
}

func TestExecutorContract(t *testing.T) {
	for _, p := range contractPlans() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			t.Run(p.name+"/"+strat.String(), func(t *testing.T) {
				steps := contractSteps(p)
				cut := contractCut

				var whole [2]observation
				var ckpts [2][]byte
				for i, shards := range []int{1, 3} {
					// Uninterrupted, with keyed reads taken before observe
					// drains the windows.
					a := openContract(t, p, strat, shards)
					a.play(t, steps)
					keyed := lookups(t, a.ex)
					if shards > 1 && a.ex.queries[0].phys.View.Kind == plan.ViewKeyed {
						groupsInOneShard(t, a.ex)
					}
					if v := a.ex.Violations(); v != 0 {
						t.Errorf("shards=%d: %d pattern violations", shards, v)
					}
					whole[i] = observe(t, a.ex)

					// Checkpoint → Open → Restore → continue.
					b := openContract(t, p, strat, shards)
					b.play(t, steps[:cut])
					var ckpt bytes.Buffer
					if err := b.ex.Queries()[0].Checkpoint(&ckpt); err != nil {
						t.Fatalf("shards=%d: Checkpoint: %v", shards, err)
					}
					ckpts[i] = ckpt.Bytes()
					c := openContract(t, p, strat, shards)
					if err := c.ex.Restore(bytes.NewReader(ckpts[i])); err != nil {
						t.Fatalf("shards=%d: Restore: %v", shards, err)
					}
					c.play(t, steps[cut:])
					if got := lookups(t, c.ex); got != keyed {
						t.Errorf("shards=%d: resumed lookups diverge\n got %s\nwant %s", shards, got, keyed)
					}
					resumed := observe(t, c.ex)
					diffObservations(t, fmt.Sprintf("shards=%d resumed", shards), resumed, whole[i])

					if i == 1 {
						one := openContract(t, p, strat, 1)
						one.play(t, steps)
						if want := lookups(t, one.ex); keyed != want {
							t.Errorf("lookups at 3 shards diverge from 1\n got %s\nwant %s", keyed, want)
						}
					}
				}

				// One partition and three agree on everything: every
				// partition sees every maintenance pass, and the engine
				// samples its state once for all of them.
				diffObservations(t, "3 shards vs 1", whole[1], whole[0])

				// An N-shard checkpoint is refused at M shards, either way
				// round, before any state is touched.
				for i, shards := range []int{1, 3} {
					d := openContract(t, p, strat, shards)
					d.play(t, steps[:cut])
					before := observeNoAdvance(t, d.ex)
					err := d.ex.Restore(bytes.NewReader(ckpts[1-i]))
					var mm *checkpoint.MismatchError
					if !errors.As(err, &mm) || mm.Field != "shards" {
						t.Fatalf("shards=%d restoring the other layout: %v, want MismatchError{Field: shards}", shards, err)
					}
					diffObservations(t, fmt.Sprintf("shards=%d after refused restore", shards), observeNoAdvance(t, d.ex), before)
				}
			})
		}
	}
}

// TestRestoredTableProbesInInsertionOrder: a table join visits a key's rows
// in insertion order, and a restored table keeps that order, so after the cut
// a restored engine emits the uninterrupted engine's exact OnEmit sequence —
// for ⋈NRR and ⋈R, whose keys hold rows inserted out of key order at the cut.
func TestRestoredTableProbesInInsertionOrder(t *testing.T) {
	for _, p := range contractPlans() {
		if _, tbl := p.build(); tbl == nil {
			continue
		}
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			t.Run(p.name+"/"+strat.String(), func(t *testing.T) {
				steps := contractSteps(p)
				var whole, resumed []string
				emitting := func(seq *[]string) Config {
					return Config{LazyInterval: 7, EagerInterval: 1, OnEmit: func(tp tuple.Tuple) { *seq = append(*seq, tp.String()) }}
				}
				a := openContractCfg(t, p, strat, 1, emitting(&whole))
				a.play(t, steps[:contractCut])
				var ckpt bytes.Buffer
				if err := a.ex.Queries()[0].Checkpoint(&ckpt); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				mark := len(whole)
				a.play(t, steps[contractCut:])

				c := openContractCfg(t, p, strat, 1, emitting(&resumed))
				if err := c.ex.Restore(&ckpt); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				c.play(t, steps[contractCut:])
				want := whole[mark:]
				if len(want) == 0 {
					t.Fatal("nothing emitted after the cut: the check is vacuous")
				}
				if fmt.Sprint(resumed) != fmt.Sprint(want) {
					i := 0
					for i < min(len(resumed), len(want)) && resumed[i] == want[i] {
						i++
					}
					t.Errorf("restored OnEmit sequence diverges at delta %d of %d/%d\n got %v\nwant %v",
						i, len(resumed), len(want), resumed[i:min(i+4, len(resumed))], want[i:min(i+4, len(want))])
				}
			})
		}
	}
}

// groupsInOneShard requires each group of a keyed view to live in exactly one
// partition — the premise that lets Snapshot concatenate the partitions'
// views without merging rows.
func groupsInOneShard(t *testing.T, e *Engine) {
	t.Helper()
	home := make(map[tuple.Key]int)
	for i, q := range e.queries {
		for _, r := range q.view.Snapshot() {
			k := r.Key(e.queries[0].phys.View.KeyCols)
			if j, seen := home[k]; seen {
				t.Errorf("group %v is in the views of shards %d and %d", k, j, i)
			}
			home[k] = i
		}
	}
	if len(home) == 0 {
		t.Error("no shard holds a group: the check is vacuous")
	}
}

// errOf drops the value of a (value, error) result.
func errOf[T any](_ T, err error) error { return err }

// TestExecutorClosed: after Close every error-returning method answers
// ErrClosed on both executors, the error-free accessors keep answering, and
// Close stays nil.
func TestExecutorClosed(t *testing.T) {
	p := contractPlans()[3] // rel-join: has a table to update
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := openContract(t, p, plan.UPA, shards)
			c.play(t, contractSteps(p)[:60])
			if err := c.ex.Sync(); err != nil {
				t.Fatal(err)
			}
			stats, clock := c.ex.Stats(), c.ex.Clock()
			for i := 0; i < 2; i++ {
				if err := c.ex.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			calls := map[string]error{
				"Push":             c.ex.Push(0, clock+1, rndTuple(rand.New(rand.NewSource(1)))...),
				"PushBatch":        c.ex.PushBatch([]Arrival{{Stream: 0, TS: clock + 1}}),
				"PushBatch(empty)": c.ex.PushBatch(nil),
				"Advance":          c.ex.Advance(clock + 1),
				"ApplyTableUpdate": c.ex.ApplyTableUpdate(c.tbl, relation.Update{Kind: relation.Insert, TS: clock + 1, Row: []tuple.Value{tuple.Int(1), tuple.String_("Sun")}}),
				"Sync":             c.ex.Sync(),
				"Snapshot":         errOf(c.ex.Queries()[0].Snapshot()),
				"ResultCount":      errOf(c.ex.Queries()[0].ResultCount()),
				"StateTuples":      errOf(c.ex.StateTuples()),
				"Touched":          errOf(c.ex.Touched()),
				"WriteProfile":     c.ex.Queries()[0].WriteProfile(io.Discard),
				"Checkpoint":       c.ex.Queries()[0].Checkpoint(io.Discard),
				"Restore":          c.ex.Restore(bytes.NewReader(nil)),
			}
			for name, err := range calls {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", name, err)
				}
			}
			if c.ex.Stats() != stats || c.ex.Clock() != clock {
				t.Errorf("accessors moved after Close: %+v/%d, want %+v/%d", c.ex.Stats(), c.ex.Clock(), stats, clock)
			}
		})
	}
}
