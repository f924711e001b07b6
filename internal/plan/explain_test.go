package plan

import (
	"strings"
	"testing"
)

func TestExplainTreeStructure(t *testing.T) {
	p := buildFor(t, q1Plan(100, "ftp"), UPA, Options{})
	tree := Explain(p)

	if tree.Strategy != UPA {
		t.Fatalf("strategy = %v", tree.Strategy)
	}
	if tree.View == "" || tree.Partition == "" {
		t.Fatalf("view/partition empty: %q / %q", tree.View, tree.Partition)
	}
	if tree.Root == nil || !strings.HasPrefix(tree.Root.Name, "join(") {
		t.Fatalf("root = %+v", tree.Root)
	}

	// Operator IDs must be the pre-order index (root = 0) so they line up
	// with Engine.Profile rows and the upa_op_* "id" label; source leaves
	// carry -1 and no stats cell.
	var opIDs []int
	var sources int
	tree.Walk(func(n *ExplainNode) {
		if n.Source != nil {
			sources++
			if n.ID != -1 {
				t.Errorf("source node %s has id %d, want -1", n.Name, n.ID)
			}
			return
		}
		opIDs = append(opIDs, n.ID)
		if n.PNode == nil {
			t.Errorf("operator node %s lost its PNode", n.Name)
		}
	})
	for i, id := range opIDs {
		if id != i {
			t.Fatalf("pre-order ids = %v", opIDs)
		}
	}
	if len(opIDs) != 3 || sources != 2 { // join over two selects, two windows
		t.Fatalf("ops = %d sources = %d", len(opIDs), sources)
	}
}

func TestExplainWriteText(t *testing.T) {
	p := buildFor(t, q1Plan(100, "ftp"), UPA, Options{})
	tree := Explain(p)
	var b strings.Builder
	if err := tree.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"strategy:  UPA",
		"pattern:   [",
		"view:      ",
		"partition: by key",
		"id=0",
		"source(S0",
		"source(S1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "analyze:") {
		t.Fatalf("plain EXPLAIN carries analyze header:\n%s", out)
	}
}

func TestExplainWriteTextAnalyzed(t *testing.T) {
	p := buildFor(t, q1Plan(100, "ftp"), UPA, Options{})
	tree := Explain(p)
	tree.Analyzed = true
	tree.Clock, tree.Watermark, tree.Shards = 200, 195, 2
	tree.Walk(func(n *ExplainNode) {
		if n.ID >= 0 {
			n.Stats = &NodeStats{InPos: 10, OutPos: 7, OutNeg: 2, Expired: 3, State: 4, Touched: 55, ProcNanos: 1500}
		}
	})
	var b strings.Builder
	if err := tree.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"analyze:   clock=200 watermark=195 shards=2",
		"in +10/-0  out +7/-2  expired 3  state 4  touched 55",
		"proc ≈1.5µs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

func TestExplainWriteDOT(t *testing.T) {
	p := buildFor(t, q1Plan(100, "ftp"), UPA, Options{})
	tree := Explain(p)
	var b strings.Builder
	if err := tree.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph plan {",
		"rankdir=BT",
		"n0 [label=",
		"shape=ellipse",
		"-> n0",
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Every child edge flows input -> parent.
	if strings.Count(out, "->") != 4 { // 2 selects->join, 2 sources->selects
		t.Fatalf("edge count wrong:\n%s", out)
	}
}

func TestExplainBareWindowPlan(t *testing.T) {
	p := buildFor(t, win(0, 100), UPA, Options{})
	tree := Explain(p)
	if tree.Root == nil || tree.Root.Source == nil || tree.Root.ID != -1 {
		t.Fatalf("bare window root = %+v", tree.Root)
	}
	var b strings.Builder
	if err := tree.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "source(S0") {
		t.Fatalf("bare window EXPLAIN:\n%s", b.String())
	}
}
