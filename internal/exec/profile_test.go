package exec

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/window"
)

// joinOfSelects builds select(join(select(S0), select(S1))) — three levels,
// so the pre-order contract of Profile is observable.
func joinOfSelects(windowSize int64) *plan.Node {
	a := plan.NewSelect(plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: windowSize}, linkSchema()), operator.True{})
	b := plan.NewSelect(plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: windowSize}, linkSchema()), operator.True{})
	return plan.NewJoin(a, b, []int{0}, []int{0})
}

func TestProfilePreOrderShape(t *testing.T) {
	eng := buildEngine(t, joinOfSelects(50), plan.UPA, Config{})
	// Two matching arrivals produce one join result.
	if err := eng.Push(0, 1, tuple.Int(7), tuple.String_("ftp"), tuple.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(1, 2, tuple.Int(7), tuple.String_("ftp"), tuple.Int(1)); err != nil {
		t.Fatal(err)
	}
	profs := eng.Queries()[0].Profile()
	if len(profs) != 3 {
		t.Fatalf("got %d profiles, want 3: %+v", len(profs), profs)
	}
	// Pre-order: root join at depth 0, then the two selects at depth 1.
	if profs[0].Class != "join" || profs[0].Depth != 0 {
		t.Fatalf("root profile: %+v", profs[0])
	}
	for i := 1; i <= 2; i++ {
		if profs[i].Class != "select" || profs[i].Depth != 1 {
			t.Fatalf("child profile %d: %+v", i, profs[i])
		}
	}
	// Each select forwarded its one arrival; the join emitted one result.
	if profs[0].Emitted != 1 || profs[0].Retracted != 0 {
		t.Errorf("join counts: %+v", profs[0])
	}
	if profs[1].Emitted != 1 || profs[2].Emitted != 1 {
		t.Errorf("select counts: %+v %+v", profs[1], profs[2])
	}
}

func TestProfileCountsRetractions(t *testing.T) {
	// Under NT a window expiration travels the plan as a negative tuple, so
	// every edge's retraction counter must tick.
	eng := buildEngine(t, simpleSelect(10), plan.NT, Config{})
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	eng.Push(0, 30, tuple.Int(2), tuple.String_("a"), tuple.Int(1)) // expires the first
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	profs := eng.Queries()[0].Profile()
	if len(profs) != 1 || profs[0].Class != "select" {
		t.Fatalf("profiles: %+v", profs)
	}
	if profs[0].Emitted != 2 || profs[0].Retracted != 1 {
		t.Errorf("select profile: %+v", profs[0])
	}
}

func TestProfileBackedByRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	eng := buildEngine(t, joinOfSelects(50), plan.UPA, Config{Metrics: reg})
	eng.Push(0, 1, tuple.Int(7), tuple.String_("ftp"), tuple.Int(1))
	eng.Push(1, 2, tuple.Int(7), tuple.String_("ftp"), tuple.Int(1))
	snap := reg.Snapshot()
	// Id 0 is the pre-order root (the join).
	if got := snap.Counters[`upa_op_emitted_total{id="0",op="join"}`]; got != 1 {
		t.Fatalf("registry join counter = %d; counters: %v", got, snap.Counters)
	}
	// Profile must read the same counters.
	if profs := eng.Queries()[0].Profile(); profs[0].Emitted != 1 {
		t.Fatalf("profile disagrees with registry: %+v", profs[0])
	}
}

func TestWriteProfileRendering(t *testing.T) {
	eng := buildEngine(t, joinOfSelects(50), plan.UPA, Config{})
	eng.Push(0, 1, tuple.Int(7), tuple.String_("ftp"), tuple.Int(1))
	var buf bytes.Buffer
	if err := eng.Queries()[0].WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 { // header + 3 operators
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "operator") || !strings.Contains(lines[0], "retracted") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "join") {
		t.Errorf("root row: %q", lines[1])
	}
	// Children are indented two spaces per depth level.
	if !strings.HasPrefix(lines[2], "  select") || !strings.HasPrefix(lines[3], "  select") {
		t.Errorf("child rows: %q / %q", lines[2], lines[3])
	}
}

func TestWriteProfileBareWindow(t *testing.T) {
	bare := buildEngine(t, plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema()), plan.UPA, Config{})
	var buf bytes.Buffer
	if err := bare.Queries()[0].WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "(bare window plan: no operators)\n" {
		t.Errorf("bare-window rendering: %q", got)
	}
	if profs := bare.Queries()[0].Profile(); len(profs) != 0 {
		t.Errorf("bare-window profiles: %+v", profs)
	}
}

// TestProfileChargesExpiry pins where expiry time goes: Advances that only
// run the maintenance passes (no arrival) raise the join's ProcNanos on an
// engine with metrics, and an engine without them reads no clock at all. A
// timed engine times one operator run in procSample at random, so one pass
// need not be timed; over 1 000 passes the chance that none of the join's
// Advance runs is timed is (15/16)^1000 ≈ 10⁻²⁸.
func TestProfileChargesExpiry(t *testing.T) {
	for _, timed := range []bool{true, false} {
		cfg := Config{}
		if timed {
			cfg.Metrics = obs.NewRegistry()
		}
		eng := buildEngine(t, joinOfSelects(50), plan.UPA, cfg)
		for ts := int64(1); ts <= 40; ts++ {
			if err := eng.Push(int(ts%2), ts, tuple.Int(ts%5), tuple.String_("ftp"), tuple.Int(1)); err != nil {
				t.Fatal(err)
			}
		}
		before := eng.Queries()[0].Profile()[0].ProcNanos
		for ts := int64(41); ts <= 1040; ts++ { // expires both join sides on the way
			if err := eng.Advance(ts); err != nil {
				t.Fatal(err)
			}
		}
		after := eng.Queries()[0].Profile()[0]
		if timed && after.ProcNanos <= before {
			t.Errorf("metrics on: join ProcNanos %d -> %d over 1000 expiry passes, want it to grow", before, after.ProcNanos)
		}
		if !timed && after.ProcNanos != 0 {
			t.Errorf("metrics off: join ProcNanos = %d, want 0", after.ProcNanos)
		}
	}
}

// TestProcSamplerUnbiased drives a flow's operator-run sampler (not the
// clock) over synthetic run-cost sequences: charging procSample × cost for
// every run it takes must estimate the total cost within 3 %, and it must
// take a share of the runs within 3σ of 1/procSample. The spike pattern is
// the one a fixed 1-in-16 stride gets wrong by 16× or reads as nothing;
// period 17 is a pattern coprime to the rate.
func TestProcSamplerUnbiased(t *testing.T) {
	const runs = 1 << 22
	heavy := rand.New(rand.NewSource(7))
	patterns := []struct {
		name string
		cost func(i int) float64
	}{
		{"constant", func(int) float64 { return 100 }},
		{"spike every 16th", func(i int) float64 {
			if i%16 == 15 {
				return 1000
			}
			return 1
		}},
		{"period 17", func(i int) float64 { return float64(1 + (i%17)*(i%17)) }},
		{"pareto 2.5", func(int) float64 { return math.Pow(1-heavy.Float64(), -1/2.5) }},
	}
	p := 1.0 / procSample
	sigma := math.Sqrt(p * (1 - p) / runs)
	for _, pat := range patterns {
		var f flow
		var total, est float64
		taken := 0
		for i := 0; i < runs; i++ {
			c := pat.cost(i)
			total += c
			if f.clk.take() {
				taken++
				est += procSample * c
			}
		}
		if r := est / total; math.Abs(r-1) > 0.03 {
			t.Errorf("%s: estimate %.4g of a total %.4g (ratio %.4f), want within 3%%", pat.name, est, total, r)
		}
		if share := float64(taken) / runs; math.Abs(share-p) > 3*sigma {
			t.Errorf("%s: took %.5f of the runs, want %.5f ± %.5f", pat.name, share, p, 3*sigma)
		}
	}
}
