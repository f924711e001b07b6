package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
	"repro/internal/window"
)

func buildFor(t *testing.T, n *Node, s Strategy, opts Options) *Physical {
	t.Helper()
	mustAnnotate(t, n)
	p, err := Build(n, s, opts)
	if err != nil {
		t.Fatalf("Build(%v): %v", s, err)
	}
	return p
}

func TestBuildRequiresAnnotation(t *testing.T) {
	if _, err := Build(q1Plan(100, "ftp"), UPA, Options{}); err == nil {
		t.Error("unannotated plan accepted")
	}
}

func TestBuildWiresSourcesAndInputs(t *testing.T) {
	p := buildFor(t, q1Plan(100, "ftp"), UPA, Options{})
	if len(p.Sources) != 2 {
		t.Fatalf("sources = %d", len(p.Sources))
	}
	if p.Root == nil || p.Root.Class != core.OpJoin || len(p.Root.Inputs) != 2 {
		t.Fatal("root must be the binary join")
	}
	for i, src := range p.Sources {
		sel := p.Root.Inputs[i]
		if sel == nil || sel.Class != core.OpSelect {
			t.Fatalf("join input %d is not a selection", i)
		}
		if src.Consumer != sel || src.Side != 0 {
			t.Errorf("source S%d feeds %v side %d, want join input %d side 0", src.StreamID, src.Consumer, src.Side, i)
		}
	}
}

func TestBuildWindowMaterialization(t *testing.T) {
	nt := buildFor(t, q1Plan(100, "ftp"), NT, Options{})
	for _, src := range nt.Sources {
		if !src.Window.Materialized() {
			t.Error("NT must materialize windows")
		}
	}
	upa := buildFor(t, q1Plan(100, "ftp"), UPA, Options{})
	for _, src := range upa.Sources {
		if src.Window.Materialized() {
			t.Error("UPA must not materialize time windows")
		}
	}
}

func TestBuildViewChoices(t *testing.T) {
	cases := []struct {
		name string
		n    *Node
		s    Strategy
		opts Options
		want ViewKind
	}{
		{"wks-upa", NewSelect(win(0, 100), operator.True{}), UPA, Options{}, ViewFIFO},
		{"wk-upa", q1Plan(100, "ftp"), UPA, Options{}, ViewPartitioned},
		{"str-upa-part", NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}), UPA, Options{STR: STRPartitioned}, ViewPartitioned},
		{"str-upa-hash", NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}), UPA, Options{STR: STRHash}, ViewHash},
		{"any-nt", q1Plan(100, "ftp"), NT, Options{}, ViewHash},
		{"any-direct", q1Plan(100, "ftp"), Direct, Options{}, ViewList},
		{"groupby", NewGroupBy(win(0, 100), []int{1}, operator.AggSpec{Kind: operator.Count}), UPA, Options{}, ViewKeyed},
		{"mono", NewSelect(NewSource(0, window.Unbounded, linkSchema()), operator.True{}), UPA, Options{}, ViewAppend},
	}
	for _, c := range cases {
		p := buildFor(t, c.n, c.s, c.opts)
		if p.View.Kind != c.want {
			t.Errorf("%s: view = %v, want %v", c.name, p.View.Kind, c.want)
		}
	}
}

func TestBuildSTRHashViewKeyedOnNegationAttribute(t *testing.T) {
	neg := NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0})
	p := buildFor(t, neg, UPA, Options{STR: STRHash})
	if len(p.View.KeyCols) != 1 || p.View.KeyCols[0] != 0 {
		t.Errorf("STR hash view keys = %v, want the negation attribute", p.View.KeyCols)
	}
	if p.View.TimeExpiry {
		t.Error("negation-root hash view needs no timestamp expiry")
	}
}

func TestBuildDeltaSubstitution(t *testing.T) {
	dist := NewDistinct(NewProject(win(0, 100), 0))
	upa := buildFor(t, dist, UPA, Options{})
	if _, ok := upa.Root.Op.(*operator.DistinctDelta); !ok {
		t.Errorf("UPA over WKS input must use δ, got %T", upa.Root.Op)
	}
	direct := buildFor(t, dist.Clone(), Direct, Options{})
	if _, ok := direct.Root.Op.(*operator.Distinct); !ok {
		t.Errorf("DIRECT must use the literature distinct, got %T", direct.Root.Op)
	}
	// Strict input forces the literature version even under UPA.
	strict := NewDistinct(NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}))
	upaStrict := buildFor(t, strict, UPA, Options{})
	if _, ok := upaStrict.Root.Op.(*operator.Distinct); !ok {
		t.Errorf("UPA over STR input must not use δ, got %T", upaStrict.Root.Op)
	}
}

func TestBufForMatrix(t *testing.T) {
	p := &Physical{Strategy: UPA}
	if cfg := p.bufFor(core.Weakest, 100, []int{0}, false, Options{}); cfg.Kind != statebuf.KindIndexedFIFO {
		t.Errorf("WKS with key → %v", cfg.Kind)
	}
	if cfg := p.bufFor(core.Weakest, 100, nil, false, Options{}); cfg.Kind != statebuf.KindFIFO {
		t.Errorf("WKS without key → %v", cfg.Kind)
	}
	if cfg := p.bufFor(core.Weak, 100, []int{0}, true, Options{Partitions: 7}); cfg.Kind != statebuf.KindPartitioned || cfg.Partitions != 7 || !cfg.SortedByExp {
		t.Errorf("WK → %+v", cfg)
	}
	if cfg := p.bufFor(core.Strict, 100, []int{0}, false, Options{}); cfg.Kind != statebuf.KindHash {
		t.Errorf("STR → %v", cfg.Kind)
	}
	p.Strategy = NT
	if cfg := p.bufFor(core.Weakest, 100, []int{0}, false, Options{}); cfg.Kind != statebuf.KindHash {
		t.Errorf("NT → %v", cfg.Kind)
	}
	p.Strategy = Direct
	if cfg := p.bufFor(core.Weak, 100, []int{0}, false, Options{}); cfg.Kind != statebuf.KindList {
		t.Errorf("DIRECT → %v", cfg.Kind)
	}
}

func TestViewKindAndSTRStorageNames(t *testing.T) {
	for _, k := range []ViewKind{ViewAppend, ViewFIFO, ViewList, ViewPartitioned, ViewHash, ViewKeyed, ViewKind(99)} {
		if k.String() == "" {
			t.Errorf("empty name for view kind %d", k)
		}
	}
	for _, s := range []STRStorage{STRAuto, STRPartitioned, STRHash} {
		if s.String() == "" {
			t.Errorf("empty name for storage %d", s)
		}
	}
}

func TestBuildBareWindowPlan(t *testing.T) {
	// A plan that is just a window: the source feeds the view directly.
	src := win(0, 100)
	p := buildFor(t, src, UPA, Options{})
	if p.Root != nil || len(p.Sources) != 1 || p.Sources[0].Consumer != nil {
		t.Error("bare window plan wiring")
	}
	if p.View.Kind != ViewFIFO {
		t.Errorf("bare window view = %v", p.View.Kind)
	}
}

func TestEstimatedOverlap(t *testing.T) {
	neg := mustAnnotate(t, NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}))
	if f := estimatedOverlap(neg); f != 1 {
		t.Errorf("overlap = %v", f)
	}
	j := mustAnnotate(t, q1Plan(100, "ftp"))
	if f := estimatedOverlap(j); f != 0 {
		t.Errorf("join-only overlap = %v", f)
	}
}

func TestBuildTableRegistration(t *testing.T) {
	tbl := relation.NewNRR("t", tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt}))
	j := NewNRRJoin(win(0, 100), tbl, []int{0}, []int{0})
	p := buildFor(t, j, UPA, Options{})
	if len(p.Tables) != 1 {
		t.Fatalf("tables = %d", len(p.Tables))
	}
	if top, ok := p.Tables[0].Op.(operator.TableOperator); !ok || top.Table() != tbl {
		t.Error("table operator registration")
	}
}

// TestCalendarsGetTheKeysThePlanProbesWith checks who hands key columns to a
// WK calendar: probed or retracted state does (join sides, a strict root's
// partitioned view), state that is only expired does not (group-by's stored
// input, a weak root's view). The view's key is an access path, so EXPLAIN's
// view line — and the checkpoint fingerprint built from it — does not name it.
func TestCalendarsGetTheKeysThePlanProbesWith(t *testing.T) {
	p := &Physical{Strategy: UPA}
	if cfg := p.bufFor(core.Weak, 100, []int{2}, false, Options{}); len(cfg.KeyCols) != 1 || cfg.KeyCols[0] != 2 {
		t.Errorf("WK buffer keys = %v, want the probe key [2]", cfg.KeyCols)
	}
	neg := buildFor(t, NewNegate(win(0, 100), win(1, 100), []int{0}, []int{0}), UPA, Options{STR: STRPartitioned})
	if neg.View.Kind != ViewPartitioned || len(neg.View.KeyCols) != 1 || neg.View.KeyCols[0] != 0 {
		t.Errorf("strict-root partitioned view = %+v, want keyed on the negation attribute", neg.View)
	}
	if got := viewDesc(neg.View); got != "partitioned time-expiry" {
		t.Errorf("EXPLAIN view line = %q, want it unchanged by the key", got)
	}
	if weak := buildFor(t, q1Plan(100, "ftp"), UPA, Options{}); len(weak.View.KeyCols) != 0 {
		t.Errorf("weak-root view keys = %v, want none", weak.View.KeyCols)
	}
}
