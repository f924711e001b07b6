package operator

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

func newTestGroupBy(t *testing.T, aggs ...AggSpec) *GroupBy {
	t.Helper()
	g, err := NewGroupBy(GroupByConfig{
		Input:     linkSchema(),
		GroupCols: []int{1}, // group by protocol
		Aggs:      aggs,
		InputBuf:  statebuf.Config{Kind: statebuf.KindFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGroupByCountIncremental(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Count})
	if g.Class() != core.OpGroupBy {
		t.Error("class wrong")
	}
	out := mustProcess(t, g, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
	if len(out) != 1 || out[0].Vals[0].S != "ftp" || out[0].Vals[1] != tuple.Int(1) {
		t.Fatalf("first: %v", out)
	}
	out = mustProcess(t, g, 0, linkTuple(2, 52, 8, "ftp", 10), 2)
	if len(out) != 1 || out[0].Vals[1] != tuple.Int(2) {
		t.Fatalf("second: %v", out)
	}
	out = mustProcess(t, g, 0, linkTuple(3, 53, 9, "telnet", 10), 3)
	if len(out) != 1 || out[0].Vals[0].S != "telnet" || out[0].Vals[1] != tuple.Int(1) {
		t.Fatalf("new group: %v", out)
	}
	if g.StateSize() != 5 { // 3 inputs + 2 groups
		t.Errorf("StateSize = %d", g.StateSize())
	}
}

// TestGroupByExpirationEmitsUpdates replays Section 2.3's observation: the
// aggregate must change on expiration even with no new arrivals.
func TestGroupByExpirationEmitsUpdates(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Count})
	mustProcess(t, g, 0, linkTuple(1, 10, 7, "ftp", 1), 1)
	mustProcess(t, g, 0, linkTuple(2, 20, 8, "ftp", 1), 2)
	out := mustAdvance(t, g, 10) // first tuple expires
	if len(out) != 1 || out[0].Neg || out[0].Vals[1] != tuple.Int(1) {
		t.Fatalf("decrement: %v", out)
	}
	out = mustAdvance(t, g, 20) // group empties
	if len(out) != 1 || !out[0].Neg {
		t.Fatalf("group vanish must retract the last row: %v", out)
	}
	if g.StateSize() != 0 {
		t.Errorf("state not drained: %d", g.StateSize())
	}
}

func TestGroupByBatchesExpirationsPerGroup(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Count})
	for i := int64(0); i < 5; i++ {
		mustProcess(t, g, 0, linkTuple(i, 10, i, "ftp", 1), i)
	}
	mustProcess(t, g, 0, linkTuple(6, 30, 9, "ftp", 1), 6)
	out := mustAdvance(t, g, 10) // five tuples of one group expire together
	if len(out) != 1 || out[0].Vals[1] != tuple.Int(1) {
		t.Fatalf("one replacement per group wave, got %v", out)
	}
}

func TestGroupBySumAvg(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Sum, Col: 2}, AggSpec{Kind: Avg, Col: 2})
	mustProcess(t, g, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
	out := mustProcess(t, g, 0, linkTuple(2, 52, 8, "ftp", 30), 2)
	if len(out) != 1 {
		t.Fatal("expected one row")
	}
	if out[0].Vals[1] != tuple.Float(40) || out[0].Vals[2] != tuple.Float(20) {
		t.Fatalf("sum/avg: %v", out[0].Vals)
	}
	out = mustAdvance(t, g, 51)
	if len(out) != 1 || out[0].Vals[1] != tuple.Float(30) || out[0].Vals[2] != tuple.Float(30) {
		t.Fatalf("after expiry: %v", out)
	}
}

func TestGroupByMinMaxRecomputeOnExpiry(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Min, Col: 2}, AggSpec{Kind: Max, Col: 2})
	mustProcess(t, g, 0, linkTuple(1, 10, 7, "ftp", 5), 1)
	mustProcess(t, g, 0, linkTuple(2, 20, 8, "ftp", 50), 2)
	out := mustProcess(t, g, 0, linkTuple(3, 30, 9, "ftp", 20), 3)
	if out[0].Vals[1] != tuple.Int(5) || out[0].Vals[2] != tuple.Int(50) {
		t.Fatalf("min/max: %v", out[0].Vals)
	}
	out = mustAdvance(t, g, 10) // min support (5) expires
	if out[0].Vals[1] != tuple.Int(20) || out[0].Vals[2] != tuple.Int(50) {
		t.Fatalf("min after expiry: %v", out[0].Vals)
	}
	out = mustAdvance(t, g, 20) // max support (50) expires
	if out[0].Vals[1] != tuple.Int(20) || out[0].Vals[2] != tuple.Int(20) {
		t.Fatalf("max after expiry: %v", out[0].Vals)
	}
}

func TestGroupByDuplicateAggValues(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Max, Col: 2})
	mustProcess(t, g, 0, linkTuple(1, 10, 7, "ftp", 50), 1)
	mustProcess(t, g, 0, linkTuple(2, 20, 8, "ftp", 50), 2)
	out := mustAdvance(t, g, 10) // one copy of 50 expires; max must survive
	if len(out) != 1 || out[0].Vals[1] != tuple.Int(50) {
		t.Fatalf("max with duplicate support: %v", out)
	}
}

// TestAggMinMaxCanonicalMultiset: Equal values share one MIN/MAX multiset
// entry, so a NaN leaves with its last copy whatever its payload, 1 and 1.0
// (and +0 and -0) count together, and the first copy seen is reported.
func TestAggMinMaxCanonicalMultiset(t *testing.T) {
	nan, otherNaN := tuple.Float(math.NaN()), tuple.Float(math.Float64frombits(0x7FF8_0000_0000_00FF))
	s := newAggState(AggSpec{Kind: Min})
	s.addValue(tuple.Float(2))
	s.addValue(nan)
	if got := s.value(); !math.IsNaN(got.F()) {
		t.Fatalf("MIN over {2, NaN} = %v, want NaN", got)
	}
	s.removeValue(otherNaN)
	if got := s.value(); got != tuple.Float(2) || len(s.multi) != 1 {
		t.Fatalf("after the NaN left: MIN = %v over %d entries, want 2 over 1", got, len(s.multi))
	}
	s.addValue(tuple.Int(1))
	s.addValue(tuple.Float(1))
	s.removeValue(tuple.Int(1))
	if got := s.value(); got != tuple.Int(1) || len(s.multi) != 2 || s.multi[tuple.Int(1)].n != 1 {
		t.Fatalf("1 and 1.0 must share an entry reporting the first seen: MIN = %#v, %v", got, s.multi)
	}
	negZero := tuple.Float(math.Copysign(0, -1))
	m := newAggState(AggSpec{Kind: Max})
	m.addValue(negZero)
	m.addValue(tuple.Float(0))
	m.removeValue(negZero)
	if got := m.value(); got != negZero || len(m.multi) != 1 {
		t.Fatalf("+0 and -0 must share an entry: MAX = %#v, %v", got, m.multi)
	}
}

// TestLoadAggMergesEqualEntries: an older encoder keyed the multiset by the
// raw value and could write Equal values as separate entries; loading merges
// them, and saving the result writes one entry per value.
func TestLoadAggMergesEqualEntries(t *testing.T) {
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	enc.Varint(5)  // n
	enc.Float(0)   // sum
	enc.Bool(true) // has a multiset
	enc.Uvarint(4) // entries
	for _, e := range []struct {
		v tuple.Value
		n int64
	}{{tuple.Float(math.NaN()), 1}, {tuple.Float(math.Float64frombits(0x7FF8_0000_0000_00FF)), 1}, {tuple.Int(1), 2}, {tuple.Float(1), 1}} {
		enc.Value(e.v)
		enc.Varint(e.n)
	}
	a, err := loadAgg(checkpoint.NewDecoder(&buf), AggSpec{Kind: Max})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.multi) != 2 || a.multi[tuple.Int(1)].n != 3 || a.multi[tuple.Float(math.NaN()).Canonical()].n != 2 {
		t.Fatalf("loaded multiset %v, want {NaN: 2, 1: 3}", a.multi)
	}
	a.removeValue(tuple.Float(1))
	a.removeValue(tuple.Int(1))
	a.removeValue(tuple.Int(1))
	if got := a.value(); !math.IsNaN(got.F()) {
		t.Fatalf("MAX after every 1 left = %v, want NaN", got)
	}
}

// TestAggSumAvgNonFiniteLeaves: a NaN or an infinity that leaves a SUM or
// AVG cell takes its effect with it. A float running sum cannot subtract
// them back out, so the cell read NaN for good once one had arrived.
func TestAggSumAvgNonFiniteLeaves(t *testing.T) {
	nan, inf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	same := func(got tuple.Value, want float64) bool {
		return got.Kind == tuple.KindFloat && (got.F() == want || math.IsNaN(got.F()) && math.IsNaN(want))
	}
	for _, kind := range []AggKind{Sum, Avg} {
		for _, bad := range []float64{nan, inf, ninf} {
			s := newAggState(AggSpec{Kind: kind})
			s.addValue(tuple.Float(2))
			s.addValue(tuple.Float(bad))
			want := bad
			if kind == Avg {
				want = bad / 2
			}
			if got := s.value(); !same(got, want) {
				t.Errorf("%v over 2, %v = %v, want %v", kind, bad, got, want)
			}
			s.removeValue(tuple.Float(bad))
			if got := s.value(); !same(got, 2) {
				t.Errorf("%v after %v left = %v, want 2", kind, bad, got)
			}
		}
		s := newAggState(AggSpec{Kind: kind})
		s.addValue(tuple.Int(4))
		s.addValue(tuple.Float(inf))
		s.addValue(tuple.Float(ninf))
		if got := s.value(); !same(got, nan) {
			t.Errorf("%v over +Inf and -Inf = %v, want NaN", kind, got)
		}
		s.removeValue(tuple.Float(inf))
		if got := s.value(); !same(got, ninf) {
			t.Errorf("%v after +Inf left = %v, want -Inf", kind, got)
		}
		s.removeValue(tuple.Float(ninf))
		if got := s.value(); !same(got, 4) {
			t.Errorf("%v after both infinities left = %v, want 4", kind, got)
		}
	}
}

// TestGroupByRestoreRecountsNonFinite: a cell saved non-finite travels as its
// NaN or infinity alone; the restored group-by recounts it from its input
// store, so the value that made it can still leave.
func TestGroupByRestoreRecountsNonFinite(t *testing.T) {
	aggs := []AggSpec{{Kind: Sum, Col: 2}, {Kind: Avg, Col: 2}}
	row := func(ts, exp int64, f float64) tuple.Tuple {
		return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{tuple.Int(1), tuple.String_("ftp"), tuple.Float(f)}}
	}
	g := colTestGroupBy(t, aggs, statebuf.Config{Kind: statebuf.KindFIFO}, false)
	mustProcess(t, g, 0, row(1, 100, 2), 1)
	mustProcess(t, g, 0, row(2, 10, math.NaN()), 2)
	mustProcess(t, g, 0, row(3, 20, math.Inf(1)), 3)
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	if err := g.SaveState(enc); err != nil {
		t.Fatal(err)
	}
	restored := colTestGroupBy(t, aggs, statebuf.Config{Kind: statebuf.KindFIFO}, false)
	if err := restored.LoadState(checkpoint.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if out := mustAdvance(t, restored, 10); len(out) != 1 || out[0].Vals[1] != tuple.Float(math.Inf(1)) {
		t.Fatalf("after the NaN left: %v, want SUM +Inf", out)
	}
	out := mustAdvance(t, restored, 20)
	if len(out) != 1 || out[0].Vals[1] != tuple.Float(2) || out[0].Vals[2] != tuple.Float(2) {
		t.Fatalf("after +Inf left: %v, want SUM 2, AVG 2", out)
	}

	// Without an input store nothing leaves: the loaded NaN stands.
	running := func() *GroupBy {
		g, err := NewGroupBy(GroupByConfig{Input: colTestSchema, GroupCols: []int{1}, Aggs: aggs, NoInputStore: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g = running()
	mustProcess(t, g, 0, row(1, tuple.NeverExpires, math.NaN()), 1)
	buf.Reset()
	if err := g.SaveState(checkpoint.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	restored = running()
	if err := restored.LoadState(checkpoint.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if out := mustProcess(t, restored, 0, row(2, tuple.NeverExpires, 3), 2); len(out) != 1 || !math.IsNaN(out[0].Vals[1].F()) {
		t.Fatalf("running SUM after a loaded NaN: %v, want NaN", out)
	}
}

// TestGroupByRowsAreNeverAliased: replacement rows carve their values from a
// shared value block, so each must own its slots. Every row one group emits —
// from runs, from expiration waves inside a run and on their own, and from a
// restored operator — keeps its values through all the group's later
// emissions, and its value slice ends where its values do.
func TestGroupByRowsAreNeverAliased(t *testing.T) {
	aggs := []AggSpec{{Kind: Count}, {Kind: Sum, Col: 2}}
	type kept struct {
		row  tuple.Tuple
		want string
	}
	var rows []kept
	keep := func(out []tuple.Tuple) {
		for _, r := range out {
			if len(r.Vals) != cap(r.Vals) {
				t.Fatalf("row %v: len %d, cap %d", r, len(r.Vals), cap(r.Vals))
			}
			rows = append(rows, kept{r, r.String()})
		}
	}
	feed := func(g *GroupBy, from, to int64) {
		var out Emit
		for ts := from; ts < to; ts++ {
			out.Reset()
			run := []tuple.Tuple{linkTuple(ts, ts+20, ts, "ftp", ts), linkTuple(ts, ts+25, ts, "ftp", 3*ts)}
			if err := g.ProcessBatch(0, run, ts, &out); err != nil {
				t.Fatal(err)
			}
			keep(out.Tuples())
		}
	}
	g := newTestGroupBy(t, aggs...)
	feed(g, 1, 41)
	keep(mustAdvance(t, g, 62))
	var buf bytes.Buffer
	if err := g.SaveState(checkpoint.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	restored := newTestGroupBy(t, aggs...)
	if err := restored.LoadState(checkpoint.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	feed(restored, 63, 90)
	keep(mustAdvance(t, restored, 120))
	if len(rows) < 100 {
		t.Fatalf("only %d rows emitted", len(rows))
	}
	for i, k := range rows {
		if got := k.row.String(); got != k.want {
			t.Fatalf("row %d changed after later emissions: %s, emitted as %s", i, got, k.want)
		}
	}
}

func TestGroupByNegativeArrivals(t *testing.T) {
	g := newTestGroupBy(t, AggSpec{Kind: Count})
	a := linkTuple(1, 51, 7, "ftp", 10)
	mustProcess(t, g, 0, a, 1)
	mustProcess(t, g, 0, linkTuple(2, 52, 8, "ftp", 10), 2)
	out := mustProcess(t, g, 0, a.Negative(3), 3)
	if len(out) != 1 || out[0].Neg || out[0].Vals[1] != tuple.Int(1) {
		t.Fatalf("retraction decrement: %v", out)
	}
	// Retraction of an unknown tuple is absorbed.
	if out := mustProcess(t, g, 0, linkTuple(0, 99, 1, "smtp", 1).Negative(4), 4); len(out) != 0 {
		t.Fatalf("unknown retraction: %v", out)
	}
}

func TestGroupByGlobalAggregate(t *testing.T) {
	g, err := NewGroupBy(GroupByConfig{
		Input:    linkSchema(),
		Aggs:     []AggSpec{{Kind: Count}},
		InputBuf: statebuf.Config{Kind: statebuf.KindFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := mustProcess(t, g, 0, linkTuple(1, 10, 7, "ftp", 1), 1)
	if len(out) != 1 || len(out[0].Vals) != 1 || out[0].Vals[0] != tuple.Int(1) {
		t.Fatalf("global count: %v", out)
	}
	out = mustAdvance(t, g, 10)
	if len(out) != 1 || !out[0].Neg {
		t.Fatalf("empty window drops the aggregation row (grouped semantics): %v", out)
	}
}

func TestGroupByValidation(t *testing.T) {
	if _, err := NewGroupBy(GroupByConfig{Input: linkSchema()}); err == nil {
		t.Error("no aggregates accepted")
	}
	if _, err := NewGroupBy(GroupByConfig{Input: linkSchema(), GroupCols: []int{9}, Aggs: []AggSpec{{Kind: Count}}}); err == nil {
		t.Error("bad group col accepted")
	}
	if _, err := NewGroupBy(GroupByConfig{Input: linkSchema(), Aggs: []AggSpec{{Kind: Sum, Col: 9}}}); err == nil {
		t.Error("bad agg col accepted")
	}
	g := newTestGroupBy(t, AggSpec{Kind: Count})
	if _, err := processTuple(g, 1, linkTuple(1, 51, 1, "x", 1), 1); err == nil {
		t.Error("bad side accepted")
	}
	if len(g.GroupCols()) != 1 || g.GroupCols()[0] != 0 {
		t.Errorf("GroupCols = %v", g.GroupCols())
	}
}

func TestAggKindStrings(t *testing.T) {
	for _, k := range []AggKind{Count, Sum, Avg, Min, Max, AggKind(9)} {
		if k.String() == "" {
			t.Errorf("empty name for %d", k)
		}
	}
	s := AggSpec{Kind: Sum, Col: 3}
	if s.String() != "SUM($3)" {
		t.Errorf("AggSpec.String = %q", s.String())
	}
}
