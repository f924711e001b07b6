package exec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/tuple"
	"repro/internal/window"
)

// buildPhys annotates and builds a fresh physical plan.
func buildPhys(t *testing.T, root *plan.Node, s plan.Strategy, opts plan.Options) *plan.Physical {
	t.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return phys
}

// selPlan is a selection over a time window — the shape the sharing tests
// instantiate repeatedly (Q1 with a predicate variant).
func selPlan(win int64, proto string) *plan.Node {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: win}, linkSchema())
	return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_(proto)})
}

// joinPlan joins two streams' windows; top selects on the probe side's
// bytes column, so two instances with different cutoffs share the join.
func joinPlan(cutoff int64) *plan.Node {
	a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 40}, linkSchema())
	b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 60}, linkSchema())
	j := plan.NewJoin(a, b, []int{0}, []int{0})
	return plan.NewSelect(j, operator.ColConst{Col: 2, Op: operator.GT, Val: tuple.Int(cutoff)})
}

// pushScript drives a deterministic two-stream workload through push (an
// engine Push or a recorder).
func pushScript(n int, push func(stream int, ts int64, vals ...tuple.Value)) {
	for i := 0; i < n; i++ {
		ts := int64(i + 1)
		push(i%2, ts, tuple.Int(int64(i%5)), tuple.String_(protos[i%len(protos)]), tuple.Int(int64(i*7%100)))
	}
}

func snapshotOf(t *testing.T, e *Engine) []tuple.Tuple {
	t.Helper()
	rows, err := e.Queries()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// renderRows renders a snapshot order-sensitively, so equality means the
// views are byte-identical, not just bag-equal.
func renderRows(rows []tuple.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&b, r.String())
	}
	return b.String()
}

func TestRegistrySharesIdenticalPlans(t *testing.T) {
	e := NewMulti(Config{})
	q1, err := e.RegisterQuery(QuerySpec{Name: "q1", Phys: buildPhys(t, selPlan(50, "http"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterQuery(QuerySpec{Name: "q2", Phys: buildPhys(t, selPlan(50, "http"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.sources) != 1 || len(e.nodes) != 1 {
		t.Fatalf("identical plans did not dedupe: %d sources, %d operators", len(e.sources), len(e.nodes))
	}
	s := e.Sharing()
	if s.Queries != 2 || s.LiveNodes != 1 || s.PlanNodes != 2 || s.SharedNodes != 1 || s.SharedSources != 1 {
		t.Fatalf("sharing stats: %+v", s)
	}
	if r := s.Ratio(); r != 2 {
		t.Fatalf("sharing ratio = %v, want 2", r)
	}

	std := buildEngine(t, selPlan(50, "http"), plan.UPA, Config{})
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		if err := std.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	want := renderRows(snapshotOf(t, std))
	for _, h := range []*QueryHandle{q1, q2} {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(rows); got != want {
			t.Fatalf("%s view != standalone\ngot:\n%swant:\n%s", h.Name(), got, want)
		}
	}
}

// gbPlan is the Query 6 shape: one window grouped by protocol with a count
// and summed bytes.
func gbPlan() *plan.Node {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	return plan.NewGroupBy(src, []int{1},
		operator.AggSpec{Kind: operator.Count},
		operator.AggSpec{Kind: operator.Sum, Col: 2})
}

// TestRegistrySharedGroupByColumnar registers two identical group-by queries
// — protocol grouping with count and summed bytes — on one registry and feeds
// it batched runs, so the single deduplicated physical group-by executes
// through the columnar kernel (keyed group table, arena-carved key copies) on
// behalf of both owners. Both handles must stay byte-identical to
// a standalone engine pinned to the row path, and the run must stay columnar
// throughout: shared sub-plans and the columnar stateful tail compose.
func TestRegistrySharedGroupByColumnar(t *testing.T) {
	cfg := Config{LazyInterval: 7, EagerInterval: 1}
	e := NewMulti(cfg)
	q1, err := e.RegisterQuery(QuerySpec{Name: "gb1", Phys: buildPhys(t, gbPlan(), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterQuery(QuerySpec{Name: "gb2", Phys: buildPhys(t, gbPlan(), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.nodes) != 1 || len(e.sources) != 1 {
		t.Fatalf("identical group-by plans did not dedupe: %d sources, %d operators", len(e.sources), len(e.nodes))
	}
	if !e.colOK {
		t.Fatal("shared group-by plan did not engage the columnar path")
	}
	row := buildEngine(t, gbPlan(), plan.UPA, Config{LazyInterval: 7, EagerInterval: 1, NoColumnar: true})

	trace := colTrace(1, 256)
	batchFeed(t, e, trace)
	batchFeed(t, row, trace)
	if !e.colOK {
		t.Fatal("columnar registry run demoted unexpectedly")
	}
	if v := e.Violations(); v != 0 {
		t.Fatalf("shared columnar group-by raised %d update-pattern violations", v)
	}
	want := renderRows(snapshotOf(t, row))
	for _, h := range []*QueryHandle{q1, q2} {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(rows); got != want {
			t.Fatalf("%s view != standalone row-path engine\ngot:\n%swant:\n%s", h.Name(), got, want)
		}
	}
}

func TestRegistrySharedPrefixPrivateTop(t *testing.T) {
	e := NewMulti(Config{})
	var handles []*QueryHandle
	var twins []*Engine
	cutoffs := []int64{10, 40, 70}
	for i, c := range cutoffs {
		h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("v%d", i), Phys: buildPhys(t, joinPlan(c), plan.UPA, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		twins = append(twins, buildEngine(t, joinPlan(c), plan.UPA, Config{}))
	}
	// Both windows and the join dedupe; only the top selections are private.
	if len(e.sources) != 2 {
		t.Fatalf("windows not shared: %d sources", len(e.sources))
	}
	if len(e.nodes) != 1+len(cutoffs) {
		t.Fatalf("join not shared: %d operators, want %d", len(e.nodes), 1+len(cutoffs))
	}

	pushScript(120, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		for _, tw := range twins {
			if err := tw.Push(st, ts, vals...); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i, h := range handles {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(snapshotOf(t, twins[i]))
		if got := renderRows(rows); got != want {
			t.Fatalf("%s view != standalone\ngot:\n%swant:\n%s", h.Name(), got, want)
		}
	}
}

func TestRegistryMixedStrategiesDontShareSources(t *testing.T) {
	e := NewMulti(Config{})
	hU, err := e.RegisterQuery(QuerySpec{Name: "upa", Phys: buildPhys(t, selPlan(30, "ftp"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	hN, err := e.RegisterQuery(QuerySpec{Name: "nt", Phys: buildPhys(t, selPlan(30, "ftp"), plan.NT, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	// The NT window is materialized, the UPA one is not: the descriptor
	// differs, so nothing dedupes and each query keeps its expiry policy.
	if len(e.sources) != 2 || len(e.nodes) != 2 {
		t.Fatalf("cross-strategy plans shared: %d sources, %d operators", len(e.sources), len(e.nodes))
	}
	stdU := buildEngine(t, selPlan(30, "ftp"), plan.UPA, Config{})
	stdN := buildEngine(t, selPlan(30, "ftp"), plan.NT, Config{})
	pushScript(60, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		for _, eng := range []*Engine{e, stdU, stdN} {
			if err := eng.Push(st, ts, vals...); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		h   *QueryHandle
		std *Engine
	}{{hU, stdU}, {hN, stdN}} {
		rows, err := c.h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Compare as bags: Snapshot order is contractually unspecified, and
		// NT view buffers can hold the same rows at different ring offsets.
		got, want := reference.RowsOf(rows), reference.RowsOf(snapshotOf(t, c.std))
		if !reference.SameBag(got, want) {
			t.Fatalf("%s view != standalone\ngot:\n%swant:\n%s",
				c.h.Name(), reference.Render(got), reference.Render(want))
		}
	}
}

func TestRegistryMultiWindowStreamStaysPrivate(t *testing.T) {
	// A self-join windows stream 0 twice: per the ordering rule neither
	// window may be shared, so a second identical query duplicates them.
	selfJoin := func() *plan.Node {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
		b := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
		return plan.NewJoin(a, b, []int{0}, []int{0})
	}
	e := NewMulti(Config{})
	if _, err := e.RegisterQuery(QuerySpec{Phys: buildPhys(t, selfJoin(), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(QuerySpec{Phys: buildPhys(t, selfJoin(), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if len(e.sources) != 4 {
		t.Fatalf("multi-window stream sources were shared: %d sources, want 4", len(e.sources))
	}
	if s := e.Sharing(); s.SharedSources != 0 || s.SharedNodes != 0 {
		t.Fatalf("sharing stats report sharing: %+v", s)
	}
}

func TestRegistryDuplicateNameRejected(t *testing.T) {
	e := NewMulti(Config{})
	if _, err := e.RegisterQuery(QuerySpec{Name: "x", Phys: buildPhys(t, selPlan(10, "http"), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(QuerySpec{Name: "x", Phys: buildPhys(t, selPlan(20, "ftp"), plan.UPA, plan.Options{})}); err == nil {
		t.Fatal("duplicate query name accepted")
	}
}

// registryEmpty asserts the record slices and the share-key indexes drained
// to zero.
func registryEmpty(t *testing.T, e *Engine) {
	t.Helper()
	if n := len(e.queries); n != 0 {
		t.Fatalf("%d queries left", n)
	}
	checks := map[string]int{
		"nodes":      len(e.nodes),
		"sources":    len(e.sources),
		"tables":     len(e.tables),
		"components": len(e.comps),
		"nodeIndex":  len(e.nodeIndex),
		"srcIndex":   len(e.srcIndex),
	}
	for name, n := range checks {
		if n != 0 {
			t.Errorf("leaked %s: %d entries", name, n)
		}
	}
	if n := e.stateTuples(); n != 0 {
		t.Errorf("leaked state: %d tuples", n)
	}
}

func TestRegistryUnregisterRetiresOrphans(t *testing.T) {
	e := NewMulti(Config{})
	h1, err := e.RegisterQuery(QuerySpec{Name: "a", Phys: buildPhys(t, joinPlan(10), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.RegisterQuery(QuerySpec{Name: "b", Phys: buildPhys(t, joinPlan(90), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	twin := buildEngine(t, joinPlan(90), plan.UPA, Config{})
	pushScript(80, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		if err := twin.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})

	freed, err := e.UnregisterQuery(h1)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Error("unregistering a live query freed no state")
	}
	// The shared join and both windows survive for b; only a's private
	// selection retired.
	if len(e.sources) != 2 || len(e.nodes) != 2 {
		t.Fatalf("after unregister(a): %d sources, %d operators", len(e.sources), len(e.nodes))
	}
	if _, err := e.UnregisterQuery(h1); err == nil {
		t.Fatal("double unregister accepted")
	}
	// a's handle refuses reads, naming it, instead of answering from its
	// retired view; the engine's first query is now b.
	for read, err := range map[string]error{
		"Sync":        h1.Sync(),
		"Snapshot":    errOf(h1.Snapshot()),
		"ResultCount": errOf(h1.ResultCount()),
		"Checkpoint":  h1.Checkpoint(io.Discard),
	} {
		if err == nil || !strings.Contains(err.Error(), "query a ") {
			t.Errorf("%s on an unregistered handle: %v, want an error naming a", read, err)
		}
	}
	if qs := e.Queries(); len(qs) != 1 || qs[0].Name() != "b" {
		t.Fatalf("Queries() after unregister(a) = %v, want [b]", qs)
	}

	// b keeps answering, still byte-identical to its standalone twin.
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		ts += 80
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		if err := twin.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	rows, err := h2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(rows), renderRows(snapshotOf(t, twin)); got != want {
		t.Fatalf("survivor view != standalone\ngot:\n%swant:\n%s", got, want)
	}

	if _, err := e.UnregisterQuery(h2); err != nil {
		t.Fatal(err)
	}
	registryEmpty(t, e)
}

func TestRegistryChurn(t *testing.T) {
	// Random register/push/unregister churn: the property under test is the
	// record bookkeeping — holders drain to zero, retired records leave no
	// state, edges never dangle — and the registry checkpoint: at random
	// steps a fresh engine registers the survivors by name, in order,
	// restores the checkpoint, and must then answer like the original.
	rng := rand.New(rand.NewSource(7))
	shapes := []func() *plan.Node{
		func() *plan.Node { return selPlan(30, "http") },
		func() *plan.Node { return selPlan(30, "ftp") },
		func() *plan.Node { return joinPlan(50) },
		func() *plan.Node { return selPlan(70, "smtp") },
	}
	type liveQuery struct {
		h     *QueryHandle
		shape int
		strat plan.Strategy
	}
	register := func(e *Engine, name string, shape int, strat plan.Strategy) *QueryHandle {
		h, err := e.RegisterQuery(QuerySpec{Name: name, Phys: buildPhys(t, shapes[shape](), strat, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	e := NewMulti(Config{})
	var live []liveQuery
	ts := int64(0)
	// push feeds n ticks to every engine, skipping streams no query reads.
	push := func(n int, engines ...*Engine) {
		streams := map[int]bool{}
		for _, id := range e.Streams() {
			streams[id] = true
		}
		for k := 0; k < n; k++ {
			ts++
			if !streams[int(ts)%2] {
				continue
			}
			for _, eng := range engines {
				err := eng.Push(int(ts)%2, ts, tuple.Int(ts%5), tuple.String_(protos[int(ts)%len(protos)]), tuple.Int(ts*3%90))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cuts := 0
	for step := 0; step < 200; step++ {
		switch {
		case len(live) == 0 || rng.Intn(3) == 0:
			shape := rng.Intn(len(shapes))
			strat := plan.UPA
			if rng.Intn(4) == 0 {
				strat = plan.NT
			}
			live = append(live, liveQuery{register(e, fmt.Sprintf("c%d", step), shape, strat), shape, strat})
		case rng.Intn(2) == 0 && len(live) > 1:
			i := rng.Intn(len(live))
			if _, err := e.UnregisterQuery(live[i].h); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case rng.Intn(6) == 0:
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			fresh := NewMulti(Config{})
			var hs []*QueryHandle
			for _, lq := range live {
				hs = append(hs, register(fresh, lq.h.Name(), lq.shape, lq.strat))
			}
			if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			push(60, e, fresh)
			for i, lq := range live {
				want, err := lq.h.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				got, err := hs[i].Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if g, w := reference.RowsOf(got), reference.RowsOf(want); !reference.SameBag(g, w) {
					t.Fatalf("step %d: restored %s diverged\ngot:\n%swant:\n%s",
						step, lq.h.Name(), reference.Render(g), reference.Render(w))
				}
			}
			cuts++
		default:
			push(5, e)
		}
		// Invariants: one stats cell per live operator, holders sum to the
		// total plan nodes, every consumer edge targets a live node.
		holders := 0
		for _, n := range e.nodes {
			holders += len(n.holders)
			if n.opStats.inPos == nil {
				t.Fatalf("step %d: live node without a stats cell", step)
			}
		}
		planNodes := 0
		for _, q := range e.queries {
			planNodes += len(q.nodes)
		}
		if holders != planNodes {
			t.Fatalf("step %d: node holders sum %d, want %d", step, holders, planNodes)
		}
		liveNode := map[*liveNode]bool{}
		for _, n := range e.nodes {
			liveNode[n] = true
		}
		for _, src := range e.sources {
			for _, ed := range src.outs {
				if !liveNode[ed.node] {
					t.Fatalf("step %d: source edge targets retired node", step)
				}
			}
		}
		for _, n := range e.nodes {
			for _, ed := range n.outs {
				if !liveNode[ed.node] {
					t.Fatalf("step %d: operator edge targets retired node", step)
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("the schedule took no checkpoint cut")
	}
	for _, lq := range live {
		if _, err := e.UnregisterQuery(lq.h); err != nil {
			t.Fatal(err)
		}
	}
	registryEmpty(t, e)
}

func TestRegistryCheckpointRestore(t *testing.T) {
	build := func() (*Engine, []*QueryHandle) {
		e := NewMulti(Config{})
		var hs []*QueryHandle
		for i, c := range []int64{20, 60} {
			h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("j%d", i), Phys: buildPhys(t, joinPlan(c), plan.UPA, plan.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		return e, hs
	}
	e1, hs1 := build()
	pushScript(90, func(st int, ts int64, vals ...tuple.Value) {
		if err := e1.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	var buf bytes.Buffer
	if err := e1.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// A query's standalone extraction names one plan, not the registry.
	var one bytes.Buffer
	if err := hs1[0].Checkpoint(&one); err != nil {
		t.Fatal(err)
	}
	e2, hs2 := build()
	var mm *checkpoint.MismatchError
	if err := e2.Restore(&one); !errors.As(err, &mm) || mm.Field != "registry" {
		t.Fatalf("a query's standalone checkpoint restored into a 2-query registry: %v", err)
	}
	if err := e2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Both engines continue identically.
	more := func(e *Engine) {
		pushScript(30, func(st int, ts int64, vals ...tuple.Value) {
			if err := e.Push(st, ts+90, vals...); err != nil {
				t.Fatal(err)
			}
		})
	}
	more(e1)
	more(e2)
	for i := range hs1 {
		r1, err := hs1[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := hs2[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderRows(r2), renderRows(r1); got != want {
			t.Fatalf("restored %s diverged\ngot:\n%swant:\n%s", hs1[i].Name(), got, want)
		}
	}

	// A third engine with a different registration sequence must refuse.
	e3 := NewMulti(Config{})
	if _, err := e3.RegisterQuery(QuerySpec{Name: "j0", Phys: buildPhys(t, joinPlan(20), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if err := e3.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
}

// TestRegistryRestoreAfterUnregister checkpoints a registry that has lost a
// query whose window a survivor shares, and restores it into a fresh registry
// that registered only the survivor. The shared stream-1 window was installed
// first by the departed query, so install order puts it before the
// survivor's stream-0 window while the fresh registry installs them the other
// way round; the sections must follow the survivors, not the install order.
func TestRegistryRestoreAfterUnregister(t *testing.T) {
	sel1 := func() *plan.Node {
		src := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 60}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	e := NewMulti(Config{})
	a, err := e.RegisterQuery(QuerySpec{Name: "a", Phys: buildPhys(t, sel1(), plan.NT, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RegisterQuery(QuerySpec{Name: "b", Phys: buildPhys(t, joinPlan(20), plan.NT, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	pushScript(50, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := e.UnregisterQuery(a); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewMulti(Config{})
	fb, err := fresh.RegisterQuery(QuerySpec{Name: "b", Phys: buildPhys(t, joinPlan(20), plan.NT, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	pushScript(120, func(st int, ts int64, vals ...tuple.Value) {
		for _, eng := range []*Engine{e, fresh} {
			if err := eng.Push(st, ts+50, vals...); err != nil {
				t.Fatal(err)
			}
		}
	})
	want, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := reference.RowsOf(got), reference.RowsOf(want); !reference.SameBag(g, w) {
		t.Fatalf("restored survivor diverged\ngot:\n%swant:\n%s", reference.Render(g), reference.Render(w))
	}
	for _, r := range got {
		if r.Exp < r.TS {
			t.Fatalf("restored view holds %s, which expires before its timestamp", r)
		}
	}
}

func TestQueryHandleCheckpointIntoStandalone(t *testing.T) {
	e := NewMulti(Config{})
	var hs []*QueryHandle
	for i, c := range []int64{15, 55} {
		h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("j%d", i), Phys: buildPhys(t, joinPlan(c), plan.UPA, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	pushScript(70, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	// Extract both queries at the same point, then run one shared
	// continuation on the registry and the same continuation on each
	// extracted standalone engine.
	var bufs [2]bytes.Buffer
	for i := range hs {
		if err := hs[i].Checkpoint(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	pushScript(30, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts+70, vals...); err != nil {
			t.Fatal(err)
		}
	})
	for i, c := range []int64{15, 55} {
		std := buildEngine(t, joinPlan(c), plan.UPA, Config{})
		if err := std.Restore(bytes.NewReader(bufs[i].Bytes())); err != nil {
			t.Fatalf("standalone restore of extracted query %d: %v", i, err)
		}
		pushScript(30, func(st int, ts int64, vals ...tuple.Value) {
			if err := std.Push(st, ts+70, vals...); err != nil {
				t.Fatal(err)
			}
		})
		rows, err := hs[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(snapshotOf(t, std))
		if got := renderRows(rows); got != want {
			t.Fatalf("extracted query %d diverged\ngot:\n%swant:\n%s", i, got, want)
		}
	}
}

func TestRegistryExplainShareAnnotations(t *testing.T) {
	e := NewMulti(Config{})
	h1, err := e.RegisterQuery(QuerySpec{Name: "alpha", Phys: buildPhys(t, joinPlan(10), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(QuerySpec{Name: "beta", Phys: buildPhys(t, joinPlan(99), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	tr := h1.Explain(false)
	sharedNodes, privateNodes := 0, 0
	tr.Walk(func(n *plan.ExplainNode) {
		if n.PNode != nil && n.ShareKey == "" {
			t.Errorf("operator %s has no share key", n.Name)
		}
		if len(n.SharedWith) > 0 {
			sharedNodes++
			for _, name := range n.SharedWith {
				if name != "beta" {
					t.Errorf("unexpected sharer %q on %s", name, n.Name)
				}
			}
		} else if n.PNode != nil {
			privateNodes++
		}
	})
	if sharedNodes == 0 {
		t.Fatal("no node annotated as shared")
	}
	if privateNodes == 0 {
		t.Fatal("the private top selection reported as shared")
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shared with beta") {
		t.Fatalf("text rendering lacks share annotation:\n%s", buf.String())
	}
}

func TestRegistryNamedQueryMetrics(t *testing.T) {
	e := NewMulti(Config{})
	// Stream 0 carries only even i of pushScript, whose protos cycle
	// ftp/telnet/smtp/http — so it sees just ftp and smtp.
	h1, err := e.RegisterQuery(QuerySpec{Name: "hot", Phys: buildPhys(t, selPlan(50, "ftp"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.RegisterQuery(QuerySpec{Name: "cold", Phys: buildPhys(t, selPlan(50, "smtp"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	emits := map[string]int{}
	h1.SetOnEmit(func(tp tuple.Tuple) {
		if !tp.Neg {
			emits["hot"]++
		}
	})
	h2.SetOnEmit(func(tp tuple.Tuple) {
		if !tp.Neg {
			emits["cold"]++
		}
	})
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	for name, q := range map[string]*queryUnit{"hot": h1.units[0], "cold": h2.units[0]} {
		if q.emitted == nil {
			t.Fatalf("%s: no per-query counter", name)
		}
		if got := int(q.emitted.Value()); got != emits[name] {
			t.Errorf("%s: per-query emitted = %d, OnEmit saw %d", name, got, emits[name])
		}
	}
	if emits["hot"] == 0 || emits["cold"] == 0 {
		t.Fatalf("workload did not exercise both queries: %v", emits)
	}
}

func TestRegistryLateRegistrationStartsCold(t *testing.T) {
	// A query registered after data has flowed starts with an empty view;
	// with a private plan (unique window size) it then tracks a standalone
	// twin exactly.
	e := NewMulti(Config{})
	if _, err := e.RegisterQuery(QuerySpec{Name: "early", Phys: buildPhys(t, selPlan(30, "http"), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	late, err := e.RegisterQuery(QuerySpec{Name: "late", Phys: buildPhys(t, selPlan(77, "http"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if n := late.View().Len(); n != 0 {
		t.Fatalf("late view starts with %d rows", n)
	}
	twin := buildEngine(t, selPlan(77, "http"), plan.UPA, Config{})
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts+40, vals...); err != nil {
			t.Fatal(err)
		}
		if err := twin.Push(st, ts+40, vals...); err != nil {
			t.Fatal(err)
		}
	})
	rows, err := late.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := reference.RowsOf(rows)
	want := reference.RowsOf(snapshotOf(t, twin))
	if !reference.SameBag(got, want) {
		t.Fatalf("late query diverged from twin\ngot:\n%s\nwant:\n%s",
			reference.Render(got), reference.Render(want))
	}
}

// TestProjectBorrowFollowsLiveGraph checks the rule that lets a projection
// emit borrowed value slices: it borrows while every consumer of its live
// node is a δ, and copies while a query is rooted at it or a non-δ operator
// reads it. Answers match unshared twins throughout, and once synced, the
// δ query's answer does not change when the caller overwrites every array
// it pushed.
func TestProjectBorrowFollowsLiveGraph(t *testing.T) {
	win := func() *plan.Node {
		return plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 30}, linkSchema())
	}
	q2 := func() *plan.Node { return plan.NewDistinct(plan.NewProject(win(), 0)) }
	srcs := func() *plan.Node { return plan.NewProject(win(), 0) }
	small := func() *plan.Node {
		return plan.NewSelect(plan.NewProject(win(), 0), operator.ColConst{Col: 0, Op: operator.LT, Val: tuple.Int(3)})
	}
	e := NewMulti(Config{})
	register := func(name string, root *plan.Node) *QueryHandle {
		h, err := e.RegisterQuery(QuerySpec{Name: name, Phys: buildPhys(t, root, plan.UPA, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h2 := register("q2", q2())
	if _, ok := h2.first().nodes[0].op.(*operator.DistinctDelta); !ok {
		t.Fatalf("Q2 under UPA is rooted at %T, not δ", h2.first().nodes[0].op)
	}
	projNode := h2.first().nodes[1]
	proj := projNode.op.(*operator.Project)

	// twins are unshared engines fed from their query's registration on.
	type twin struct {
		h   *QueryHandle
		std *Engine
	}
	twins := []twin{{h2, buildEngine(t, q2(), plan.UPA, Config{})}}
	var pushed [][]tuple.Value
	ts := int64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			ts++
			vals := []tuple.Value{tuple.Int(ts % 7), tuple.String_(protos[ts%int64(len(protos))]), tuple.Int(ts)}
			pushed = append(pushed, vals)
			if err := e.Push(0, ts, vals...); err != nil {
				t.Fatal(err)
			}
			for _, tw := range twins {
				if err := tw.std.Push(0, ts, vals...); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tw := range twins {
			got, err := tw.h.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderRows(got), renderRows(snapshotOf(t, tw.std)); g != w {
				t.Fatalf("t=%d %s != unshared twin\ngot:\n%swant:\n%s", ts, tw.h.Name(), g, w)
			}
		}
	}
	// borrows reports whether a live projection's emitted row shares the
	// array of the row it projected.
	borrows := func(proj *operator.Project) bool {
		vals := pushed[len(pushed)-1]
		var out operator.Emit
		if err := proj.ProcessBatch(0, []tuple.Tuple{{TS: ts, Exp: ts + 30, Vals: vals}}, ts, &out); err != nil {
			t.Fatal(err)
		}
		return unsafe.SliceData(out.Tuples()[0].Vals) == unsafe.SliceData(vals)
	}
	shareProjection := func(name string, root *plan.Node) *QueryHandle {
		h := register(name, root)
		if !slices.Contains(h.first().nodes, projNode) {
			t.Fatalf("%s does not share Q2's projection", name)
		}
		twins = append(twins, twin{h, buildEngine(t, root, plan.UPA, Config{})})
		return h
	}
	unregister := func(h *QueryHandle) {
		if _, err := e.UnregisterQuery(h); err != nil {
			t.Fatal(err)
		}
		twins = slices.DeleteFunc(twins, func(tw twin) bool { return tw.h == h })
	}

	push(40)
	if !borrows(proj) {
		t.Fatal("a projection feeding only δ copies")
	}
	for _, c := range []struct {
		name string
		root *plan.Node
	}{{"rooted", srcs()}, {"selected", small()}} {
		h := shareProjection(c.name, c.root)
		push(40)
		if borrows(proj) {
			t.Fatalf("with query %s on it, the projection borrows", c.name)
		}
		unregister(h)
		push(40)
		if !borrows(proj) {
			t.Fatalf("after query %s left, the projection copies", c.name)
		}
	}

	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	rows, err := h2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(rows)
	for _, vals := range pushed {
		for i := range vals {
			vals[i] = tuple.String_("overwritten")
		}
	}
	if rows, err = h2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := renderRows(rows); got != want {
		t.Fatalf("overwriting pushed arrays changed Q2's answer\ngot:\n%swant:\n%s", got, want)
	}

	// Every partition of a partitioned Q2 decides for its own projection.
	pe, fallback, err := Open(QuerySpec{Phys: buildPhys(t, q2(), plan.UPA, plan.Options{})}, Config{}, 2)
	if err != nil || fallback != "" {
		t.Fatalf("open: %v %s", err, fallback)
	}
	defer pe.Close()
	for i, q := range pe.queries {
		if !borrows(q.nodes[1].op.(*operator.Project)) {
			t.Fatalf("partition %d's projection copies", i)
		}
	}
}

// TestProjectBorrowsUnderLiteratureDistinct: under NT and DIRECT, Q2's
// projection feeds the literature Distinct, which copies what it keeps, so
// it borrows as it does under δ. Once synced, Q2's answer does not change
// when the caller overwrites every array it pushed, and it matches an
// engine whose projection copies.
func TestProjectBorrowsUnderLiteratureDistinct(t *testing.T) {
	q2 := func() *plan.Node {
		return plan.NewDistinct(plan.NewProject(plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 30}, linkSchema()), 0))
	}
	for _, strat := range []plan.Strategy{plan.NT, plan.Direct} {
		t.Run(strat.String(), func(t *testing.T) {
			e, twin := buildEngine(t, q2(), strat, Config{}), buildEngine(t, q2(), strat, Config{})
			q := e.Queries()[0].first()
			if _, ok := q.nodes[0].op.(*operator.Distinct); !ok {
				t.Fatalf("Q2 is rooted at %T, not the literature Distinct", q.nodes[0].op)
			}
			probe := []tuple.Value{tuple.Int(1), tuple.String_("ftp"), tuple.Int(1)}
			var out operator.Emit
			if err := q.nodes[1].op.ProcessBatch(0, []tuple.Tuple{{TS: 0, Exp: 30, Vals: probe}}, 0, &out); err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(out.Tuples()[0].Vals) != unsafe.SliceData(probe) {
				t.Fatal("the projection under the literature Distinct copies")
			}
			twin.Queries()[0].first().nodes[1].op.(*operator.Project).SetBorrow(false)
			var pushed [][]tuple.Value
			for ts := int64(1); ts <= 200; ts++ {
				vals := []tuple.Value{tuple.Int(ts % 7), tuple.String_(protos[ts%int64(len(protos))]), tuple.Int(ts)}
				pushed = append(pushed, vals)
				if err := e.Push(0, ts, vals...); err != nil {
					t.Fatal(err)
				}
				if err := twin.Push(0, ts, slices.Clone(vals)...); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			want := renderRows(snapshotOf(t, twin))
			if got := renderRows(snapshotOf(t, e)); got != want {
				t.Fatalf("the borrowing engine answers\n%sthe copying one\n%s", got, want)
			}
			for _, vals := range pushed {
				for i := range vals {
					vals[i] = tuple.String_("overwritten")
				}
			}
			if got := renderRows(snapshotOf(t, e)); got != want {
				t.Fatalf("overwriting pushed arrays changed Q2's answer\ngot:\n%swant:\n%s", got, want)
			}
		})
	}
}
