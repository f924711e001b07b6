package repro_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestRegistryCISmoke is the CI multi-query smoke: register 8 queries on one
// registry, push traffic, unregister half, push more, and require (a) every
// survivor's view to stay bag-equal to a standalone twin fed the same
// arrivals, (b) unregistration to free state, (c) the /debug/plan page to
// carry "shared with" annotations, and (d) a checkpoint taken after the
// unregistration to restore into a fresh registry that registered only the
// survivors, which must then match the twins too. The NT survivor's windows
// travel with their contents, and the departed q2-link1 installed the
// stream-1 window and distinct it shares, so install order is not the
// survivors' order.
func TestRegistryCISmoke(t *testing.T) {
	sch := connSchema()
	w := func(link int) repro.Node { return repro.Stream(link, sch, repro.TimeWindow(30)) }
	sel := func(link int, proto string) repro.Node {
		return w(link).Where(repro.Col("proto").EqStr(proto))
	}
	join := func(proto string) func() repro.Node {
		return func() repro.Node { return sel(0, proto).JoinOn(sel(1, proto), "src") }
	}
	paper := paperQueries(30)
	// Survivors sit at even indices and together read streams 0..2, so the
	// push loop stays valid after the odd half is unregistered.
	specs := []struct {
		name  string
		strat repro.Strategy
		build func() repro.Node
	}{
		{"q5-pushdown", repro.UPA, paper["q5-pushdown"]},
		{"q2-link1", repro.NT, func() repro.Node { return w(1).Select("src").Distinct() }},
		{"q4-distinct-join", repro.NT, paper["q4-distinct-join"]},
		{"q3-negation", repro.UPA, paper["q3-negation"]},
		{"q2-distinct", repro.UPA, paper["q2-distinct"]},
		{"j-smtp", repro.UPA, join("smtp")},
		{"q1-ftp", repro.UPA, paper["q1-join"]},
		{"j-http", repro.UPA, join("http")},
	}
	reg, err := repro.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	handles := make([]*repro.Query, len(specs))
	twins := make([]*repro.Engine, len(specs))
	for i, s := range specs {
		if handles[i], err = reg.Register(s.build(), s.strat, repro.WithQueryName(s.name)); err != nil {
			t.Fatalf("register %s: %v", s.name, err)
		}
		if i%2 == 0 {
			if twins[i], err = repro.Compile(s.build(), s.strat); err != nil {
				t.Fatalf("compile twin %s: %v", s.name, err)
			}
		}
	}
	if s := reg.Sharing(); s.SharedSources == 0 || s.SharedNodes == 0 {
		t.Fatalf("8 paper-derived queries must share sub-plans: %+v", s)
	}

	page := reg.PlanPage()
	rr := httptest.NewRecorder()
	page.Handler(rr, httptest.NewRequest("GET", page.Path, nil))
	if !strings.Contains(rr.Body.String(), "shared with") {
		t.Fatalf("/debug/plan carries no share annotations:\n%s", rr.Body.String())
	}

	protos := []string{"ftp", "telnet", "smtp", "http"}
	ts := int64(0)
	push := func(n int, regs ...*repro.Registry) {
		t.Helper()
		for i := 0; i < n; i++ {
			ts++
			stream := int(ts) % 3
			vals := []repro.Value{
				repro.Int(ts * 7 % 13), repro.Int(ts * 3 % 7), repro.Str(protos[int(ts)%4]),
			}
			for _, r := range regs {
				if err := r.Push(stream, ts, vals...); err != nil {
					t.Fatal(err)
				}
			}
			for _, tw := range twins {
				if tw == nil {
					continue
				}
				for _, id := range tw.Streams() {
					if id == stream {
						if err := tw.Push(stream, ts, vals...); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
		}
	}
	push(120, reg)
	freed := 0
	for i := 1; i < len(specs); i += 2 {
		n, err := reg.Unregister(handles[i])
		if err != nil {
			t.Fatalf("unregister %s: %v", specs[i].name, err)
		}
		freed += n
	}
	if freed == 0 {
		t.Error("unregistering half the queries freed no state")
	}
	if n := len(reg.Queries()); n != len(specs)/2 {
		t.Fatalf("%d queries live after unregistering half, want %d", n, len(specs)/2)
	}

	var ckpt bytes.Buffer
	if err := reg.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := repro.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	resumed := make([]*repro.Query, len(specs))
	for i := 0; i < len(specs); i += 2 {
		s := specs[i]
		if resumed[i], err = restored.Register(s.build(), s.strat, repro.WithQueryName(s.name)); err != nil {
			t.Fatalf("register survivor %s: %v", s.name, err)
		}
	}
	if err := restored.Restore(&ckpt); err != nil {
		t.Fatalf("restore after unregistering half: %v", err)
	}

	push(120, reg, restored)
	for i := 0; i < len(specs); i += 2 {
		want, err := twins[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for who, h := range map[string]*repro.Query{"registry": handles[i], "restored registry": resumed[i]} {
			rows, err := h.Snapshot()
			if err != nil {
				t.Fatalf("%s snapshot: %v", specs[i].name, err)
			}
			if got, wantBag := bagOf(rows), bagOf(want); got != wantBag {
				t.Errorf("%s: %s diverged from standalone after churn\ngot:\n%s\nwant:\n%s",
					who, specs[i].name, got, wantBag)
			}
		}
	}
}

// TestRegisterWithOnEmit: a WithOnEmit option given to Registry.Register
// observes exactly that query's output deltas — the same sequence a
// standalone engine compiled with the same option reports — and none of its
// neighbour's, even though the two queries share their window.
func TestRegisterWithOnEmit(t *testing.T) {
	sch := connSchema()
	sel := func(proto string) repro.Node {
		return repro.Stream(0, sch, repro.TimeWindow(5)).Where(repro.Col("proto").EqStr(proto))
	}
	protos := []string{"ftp", "http"}
	reg, err := repro.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	got := make([][]string, len(protos))
	want := make([][]string, len(protos))
	twins := make([]*repro.Engine, len(protos))
	for i, p := range protos {
		i := i
		if _, err := reg.Register(sel(p), repro.NT, repro.WithOnEmit(func(d repro.Tuple) {
			got[i] = append(got[i], d.String())
		})); err != nil {
			t.Fatal(err)
		}
		if twins[i], err = repro.Compile(sel(p), repro.NT, repro.WithOnEmit(func(d repro.Tuple) {
			want[i] = append(want[i], d.String())
		})); err != nil {
			t.Fatal(err)
		}
		defer twins[i].Close()
	}
	for ts := int64(1); ts <= 20; ts++ {
		vals := []repro.Value{repro.Int(ts % 3), repro.Int(7), repro.Str(protos[ts%2])}
		if err := reg.Push(0, ts, vals...); err != nil {
			t.Fatal(err)
		}
		for _, tw := range twins {
			if err := tw.Push(0, ts, vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range protos {
		if len(got[i]) == 0 {
			t.Fatalf("%s: callback saw no deltas", p)
		}
		if strings.Join(got[i], "\n") != strings.Join(want[i], "\n") {
			t.Errorf("%s: callback deltas\n%s\nstandalone twin saw\n%s", p, strings.Join(got[i], "\n"), strings.Join(want[i], "\n"))
		}
		for _, d := range got[i] {
			if !strings.Contains(d, p) {
				t.Errorf("%s: callback saw a neighbour's delta %s", p, d)
			}
		}
	}
}
