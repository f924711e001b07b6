package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/plan"
)

func TestBuildPlanAllQueries(t *testing.T) {
	for _, q := range AllQueries() {
		root := BuildPlan(q, 1000)
		if err := plan.Annotate(root, PlanStats(q, 0)); err != nil {
			t.Errorf("%v: %v", q, err)
		}
		if q.String() == "" || q.Links() < 1 {
			t.Errorf("%v metadata", q)
		}
	}
	if Query(99).String() == "" {
		t.Error("unknown query name")
	}
	defer func() {
		if recover() == nil {
			t.Error("BuildPlan should panic on unknown query")
		}
	}()
	BuildPlan(Query(99), 1000)
}

func TestRunProducesSaneResults(t *testing.T) {
	for _, v := range StdVariants() {
		res, err := Run(Q1FTP, RunConfig{Strategy: v.Strat, Opts: v.Opts, Window: 500})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if res.Tuples != 2000 { // duration 2×window × 2 links
			t.Errorf("%s: tuples = %d", v.Name, res.Tuples)
		}
		if res.MsPerK <= 0 || res.Elapsed <= 0 {
			t.Errorf("%s: timing %v %v", v.Name, res.MsPerK, res.Elapsed)
		}
		if res.Emitted == 0 {
			t.Errorf("%s: no results emitted", v.Name)
		}
		if res.MaxState == 0 {
			t.Errorf("%s: no state recorded", v.Name)
		}
	}
}

// TestStrategiesAgreeOnFinalAnswer is the bench-level equivalence check:
// identical trace, identical final view cardinality across strategies.
func TestStrategiesAgreeOnFinalAnswer(t *testing.T) {
	for _, q := range AllQueries() {
		var want int
		for i, v := range STRVariants() {
			res, err := Run(q, RunConfig{Strategy: v.Strat, Opts: v.Opts, Window: 400})
			if err != nil {
				t.Fatalf("%v/%s: %v", q, v.Name, err)
			}
			if i == 0 {
				want = res.FinalResults
			} else if res.FinalResults != want {
				t.Errorf("%v: %s final results %d != %d", q, v.Name, res.FinalResults, want)
			}
		}
	}
}

func TestNTGeneratesWindowNegatives(t *testing.T) {
	res, err := Run(Q1FTP, RunConfig{Strategy: plan.NT, Window: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowNegatives == 0 {
		t.Error("NT must generate window negatives")
	}
	res, err = Run(Q1FTP, RunConfig{Strategy: plan.UPA, Window: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowNegatives != 0 {
		t.Error("UPA must not generate window negatives")
	}
}

func TestDisjointNegationNeverRetracts(t *testing.T) {
	res, err := Run(Q3Disjoint, RunConfig{Strategy: plan.UPA, Opts: plan.Options{STR: plan.STRPartitioned}, Window: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retracted != 0 {
		t.Errorf("disjoint negation retracted %d results", res.Retracted)
	}
	res, err = Run(Q3Negation, RunConfig{Strategy: plan.UPA, Opts: plan.Options{STR: plan.STRPartitioned}, Window: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retracted == 0 {
		t.Error("overlapping negation must retract")
	}
}

func TestExperimentsQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are not short")
	}
	for _, e := range Experiments() {
		switch e.ID {
		case "e1a", "e6", "e8": // one sweep, one special per family
			tabs, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
				t.Errorf("%s: empty tables", e.ID)
			}
		}
	}
}

func TestWriteTable(t *testing.T) {
	tab := Table{
		Title:   "Demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   "note",
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## Demo", "long-column", "333333", "note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
