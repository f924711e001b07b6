package reference

import (
	"testing"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

func schema2() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "src", Kind: tuple.KindInt},
		tuple.Column{Name: "proto", Kind: tuple.KindString},
	)
}

func win(id int, size int64) *plan.Node {
	return plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: size}, schema2())
}

func annotate(t *testing.T, n *plan.Node) *plan.Node {
	t.Helper()
	if err := plan.Annotate(n, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	return n
}

func evalAt(t *testing.T, ev *Evaluator, now int64) []Row {
	t.Helper()
	rows, err := ev.Eval(now)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestWindowContentsTimeBased(t *testing.T) {
	root := annotate(t, win(0, 10))
	ev := New(root)
	ev.Push(0, 1, tuple.Int(1), tuple.String_("a"))
	ev.Push(0, 5, tuple.Int(2), tuple.String_("b"))
	if got := evalAt(t, ev, 5); len(got) != 2 {
		t.Fatalf("at 5: %v", got)
	}
	// Tuple from ts=1 expires at 11 (now - T boundary is exclusive).
	if got := evalAt(t, ev, 11); len(got) != 1 || !got[0][0].Identical(tuple.Int(2)) {
		t.Fatalf("at 11: %v", got)
	}
	if got := evalAt(t, ev, 0); len(got) != 0 {
		t.Fatalf("before arrivals: %v", got)
	}
}

func TestWindowContentsCountBased(t *testing.T) {
	root := annotate(t, plan.NewSource(0, window.Spec{Type: window.CountBased, Size: 2}, schema2()))
	ev := New(root)
	for i := int64(1); i <= 3; i++ {
		ev.Push(0, i, tuple.Int(i), tuple.String_("a"))
	}
	got := evalAt(t, ev, 3)
	if len(got) != 2 || !got[0][0].Identical(tuple.Int(2)) || !got[1][0].Identical(tuple.Int(3)) {
		t.Fatalf("count window: %v", got)
	}
	// At time 1 only the first had arrived.
	if got := evalAt(t, ev, 1); len(got) != 1 {
		t.Fatalf("count window early: %v", got)
	}
}

func TestUnboundedStream(t *testing.T) {
	root := annotate(t, plan.NewSource(0, window.Unbounded, schema2()))
	ev := New(root)
	ev.Push(0, 1, tuple.Int(1), tuple.String_("a"))
	ev.Push(0, 100, tuple.Int(2), tuple.String_("a"))
	if got := evalAt(t, ev, 1000000); len(got) != 2 {
		t.Fatalf("unbounded: %v", got)
	}
}

func TestRelationalOperators(t *testing.T) {
	// negation: (W0 − W1) on src.
	neg := annotate(t, plan.NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}))
	ev := New(neg)
	ev.Push(0, 1, tuple.Int(5), tuple.String_("a"))
	ev.Push(0, 2, tuple.Int(5), tuple.String_("b"))
	ev.Push(1, 3, tuple.Int(5), tuple.String_("c"))
	got := evalAt(t, ev, 3)
	if len(got) != 1 { // max(2-1, 0)
		t.Fatalf("negation: %v", got)
	}

	// intersection on full rows.
	isect := annotate(t, plan.NewIntersect(
		plan.NewProject(win(0, 100), 0), plan.NewProject(win(1, 100), 0)))
	ev2 := New(isect)
	ev2.Push(0, 1, tuple.Int(5), tuple.String_("a"))
	ev2.Push(0, 2, tuple.Int(5), tuple.String_("a"))
	ev2.Push(1, 3, tuple.Int(5), tuple.String_("b"))
	if got := evalAt(t, ev2, 3); len(got) != 1 { // min(2,1)
		t.Fatalf("intersection: %v", got)
	}

	// distinct + union + select + groupby sanity.
	gb := annotate(t, plan.NewGroupBy(
		plan.NewSelect(plan.NewUnion(win(0, 100), win(1, 100)),
			operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("a")}),
		[]int{0},
		operator.AggSpec{Kind: operator.Count},
		operator.AggSpec{Kind: operator.Min, Col: 0},
		operator.AggSpec{Kind: operator.Max, Col: 0},
		operator.AggSpec{Kind: operator.Sum, Col: 0},
		operator.AggSpec{Kind: operator.Avg, Col: 0}))
	ev3 := New(gb)
	ev3.Push(0, 1, tuple.Int(5), tuple.String_("a"))
	ev3.Push(1, 2, tuple.Int(5), tuple.String_("a"))
	ev3.Push(0, 3, tuple.Int(5), tuple.String_("x"))
	got = evalAt(t, ev3, 3)
	if len(got) != 1 || !got[0][1].Identical(tuple.Int(2)) {
		t.Fatalf("groupby: %v", got)
	}
}

func TestTableStateReplay(t *testing.T) {
	tblSchema := tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt})
	tbl := relation.NewRelation("t", tblSchema)
	root := annotate(t, plan.NewRelJoin(win(0, 100), tbl, []int{0}, []int{0}))
	ev := New(root)
	ev.Push(0, 1, tuple.Int(7), tuple.String_("a"))
	ev.PushTable(tbl, relation.Update{Kind: relation.Insert, TS: 2, Row: []tuple.Value{tuple.Int(7)}})
	if got := evalAt(t, ev, 1); len(got) != 0 {
		t.Fatalf("row not yet inserted at t=1: %v", got)
	}
	if got := evalAt(t, ev, 2); len(got) != 1 {
		t.Fatalf("retroactive join at t=2: %v", got)
	}
	ev.PushTable(tbl, relation.Update{Kind: relation.Delete, TS: 3, Row: []tuple.Value{tuple.Int(7)}})
	if got := evalAt(t, ev, 3); len(got) != 0 {
		t.Fatalf("retroactive delete at t=3: %v", got)
	}
}

func TestNRRDefinition2(t *testing.T) {
	tblSchema := tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt})
	tbl := relation.NewNRR("t", tblSchema)
	root := annotate(t, plan.NewNRRJoin(win(0, 100), tbl, []int{0}, []int{0}))
	ev := New(root)
	ev.PushTable(tbl, relation.Update{Kind: relation.Insert, TS: 1, Row: []tuple.Value{tuple.Int(7)}})
	ev.Push(0, 2, tuple.Int(7), tuple.String_("a"))
	ev.PushTable(tbl, relation.Update{Kind: relation.Delete, TS: 3, Row: []tuple.Value{tuple.Int(7)}})
	// Definition 2: the result reflects the NRR at the tuple's ts (2), so
	// the later delete does not retract it.
	if got := evalAt(t, ev, 5); len(got) != 1 {
		t.Fatalf("Def-2 at t=5: %v", got)
	}
	// A tuple arriving after the delete does not join.
	ev.Push(0, 6, tuple.Int(7), tuple.String_("b"))
	if got := evalAt(t, ev, 6); len(got) != 1 {
		t.Fatalf("Def-2 at t=6: %v", got)
	}
}

func TestSameBagSemantics(t *testing.T) {
	a := []Row{{tuple.Int(1)}, {tuple.Float(2)}}
	b := []Row{{tuple.Float(1)}, {tuple.Int(2)}}
	if !SameBag(a, b) {
		t.Error("numeric cross-kind equality")
	}
	if SameBag(a, []Row{{tuple.Int(1)}}) {
		t.Error("length mismatch")
	}
	if SameBag([]Row{{tuple.Int(1)}}, []Row{{tuple.Int(2)}}) {
		t.Error("value mismatch")
	}
	if !SameBag([]Row{{tuple.Float(1.0000000000001)}}, []Row{{tuple.Float(1)}}) {
		t.Error("float tolerance")
	}
	if SameBag([]Row{{tuple.String_("a")}}, []Row{{tuple.Int(1)}}) {
		t.Error("kind mismatch")
	}
	// Duplicates must be matched one-for-one.
	if SameBag([]Row{{tuple.Int(1)}, {tuple.Int(1)}}, []Row{{tuple.Int(1)}, {tuple.Int(2)}}) {
		t.Error("multiset duplicate handling")
	}
}

func TestRowsOfAndRender(t *testing.T) {
	ts := []tuple.Tuple{{Vals: []tuple.Value{tuple.Int(1)}}, {Vals: []tuple.Value{tuple.Int(2)}}}
	rows := RowsOf(ts)
	if len(rows) != 2 || !rows[0][0].Identical(tuple.Int(1)) {
		t.Errorf("RowsOf: %v", rows)
	}
	if Render(rows) == "" {
		t.Error("Render empty")
	}
}

func TestLiveWithTimestampsFallback(t *testing.T) {
	// ⋈NRR normally consumes source/select/project chains; feed it a union
	// to exercise the conservative fallback (results treated as generated
	// "now", i.e. seeing the current NRR state).
	tblSchema := tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt})
	tbl := relation.NewNRR("t", tblSchema)
	u := plan.NewUnion(plan.NewProject(win(0, 100), 0), plan.NewProject(win(1, 100), 0))
	root := annotate(t, plan.NewNRRJoin(u, tbl, []int{0}, []int{0}))
	ev := New(root)
	ev.PushTable(tbl, relation.Update{Kind: relation.Insert, TS: 1, Row: []tuple.Value{tuple.Int(7)}})
	ev.Push(0, 2, tuple.Int(7), tuple.String_("a"))
	if got := evalAt(t, ev, 3); len(got) != 1 {
		t.Fatalf("fallback join: %v", got)
	}
}

func TestLiveWithTimestampsSelectProject(t *testing.T) {
	tblSchema := tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt})
	tbl := relation.NewNRR("t", tblSchema)
	sel := plan.NewSelect(win(0, 100), operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("a")})
	proj := plan.NewProject(sel, 0)
	root := annotate(t, plan.NewNRRJoin(proj, tbl, []int{0}, []int{0}))
	ev := New(root)
	ev.PushTable(tbl, relation.Update{Kind: relation.Insert, TS: 1, Row: []tuple.Value{tuple.Int(7)}})
	ev.Push(0, 2, tuple.Int(7), tuple.String_("a"))
	ev.Push(0, 3, tuple.Int(7), tuple.String_("b")) // filtered out
	// Delete after the first arrival: Definition 2 keeps its result.
	ev.PushTable(tbl, relation.Update{Kind: relation.Delete, TS: 4, Row: []tuple.Value{tuple.Int(7)}})
	if got := evalAt(t, ev, 5); len(got) != 1 {
		t.Fatalf("select/project Def-2 chain: %v", got)
	}
}

func TestEvalUnknownNode(t *testing.T) {
	bad := &plan.Node{Kind: plan.NodeKind(99)}
	if _, err := New(bad).Eval(0); err == nil {
		t.Error("unknown node accepted")
	}
}
