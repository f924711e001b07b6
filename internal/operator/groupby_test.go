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
