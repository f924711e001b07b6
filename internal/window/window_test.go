package window

import (
	"strings"
	"testing"

	"repro/internal/tuple"
)

func arrive(t *testing.T, w *Window, ts int64, v int64) tuple.Tuple {
	t.Helper()
	st, _, err := w.Arrive(tuple.New(ts, tuple.Int(v)))
	if err != nil {
		t.Fatalf("Arrive(%d): %v", ts, err)
	}
	return st
}

func TestSpecValidateAndString(t *testing.T) {
	if err := (Spec{Type: TimeBased, Size: -1}).Validate(); err == nil {
		t.Error("negative size should fail")
	}
	if err := (Spec{Type: CountBased, Size: 0}).Validate(); err == nil {
		t.Error("count window size 0 should fail")
	}
	if !Unbounded.IsUnbounded() {
		t.Error("Unbounded should be unbounded")
	}
	if (Spec{Type: TimeBased, Size: 5}).IsUnbounded() {
		t.Error("sized window is not unbounded")
	}
	if s := (Spec{Type: TimeBased, Size: 5}).String(); !strings.Contains(s, "time(5)") {
		t.Errorf("String = %q", s)
	}
	if s := (Spec{Type: CountBased, Size: 3}).String(); !strings.Contains(s, "count(3)") {
		t.Errorf("String = %q", s)
	}
	if Unbounded.String() != "stream" {
		t.Errorf("unbounded String = %q", Unbounded.String())
	}
}

func TestTimeWindowStampsExp(t *testing.T) {
	w, err := New(Spec{Type: TimeBased, Size: 50}, false)
	if err != nil {
		t.Fatal(err)
	}
	st := arrive(t, w, 10, 1)
	if st.Exp != 60 {
		t.Errorf("Exp = %d, want 60", st.Exp)
	}
	if w.Materialized() || w.Len() != 0 {
		t.Error("non-materialized window must not store")
	}
	if w.Arrivals() != 1 {
		t.Errorf("Arrivals = %d", w.Arrivals())
	}
}

func TestUnboundedStreamNeverExpires(t *testing.T) {
	w, _ := New(Unbounded, false)
	st := arrive(t, w, 10, 1)
	if st.Exp != tuple.NeverExpires {
		t.Errorf("Exp = %d", st.Exp)
	}
}

func TestTimestampMonotonicity(t *testing.T) {
	w, _ := New(Spec{Type: TimeBased, Size: 50}, false)
	arrive(t, w, 10, 1)
	if _, _, err := w.Arrive(tuple.New(5, tuple.Int(2))); err == nil {
		t.Error("decreasing timestamp must be rejected")
	}
	// Equal timestamps are allowed (non-decreasing).
	if _, _, err := w.Arrive(tuple.New(10, tuple.Int(3))); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestNegativeArrivalRejected(t *testing.T) {
	w, _ := New(Spec{Type: TimeBased, Size: 50}, false)
	if _, _, err := w.Arrive(tuple.New(1, tuple.Int(1)).Negative(1)); err == nil {
		t.Error("negative arrival on a base stream must be rejected")
	}
}

func TestMaterializedExpiration(t *testing.T) {
	w, _ := New(Spec{Type: TimeBased, Size: 50}, true)
	arrive(t, w, 10, 1)
	arrive(t, w, 20, 2)
	arrive(t, w, 30, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	exp := w.ExpireUpTo(70) // tuples with exp 60, 70 expire
	if len(exp) != 2 {
		t.Fatalf("expired %d, want 2", len(exp))
	}
	if !exp[0].Vals[0].Identical(tuple.Int(1)) || !exp[1].Vals[0].Identical(tuple.Int(2)) {
		t.Errorf("expired order: %v", exp)
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestCountWindowEviction(t *testing.T) {
	w, err := New(Spec{Type: CountBased, Size: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Materialized() {
		t.Fatal("count window must materialize")
	}
	for i := int64(1); i <= 3; i++ {
		_, ev, err := w.Arrive(tuple.New(i, tuple.Int(i)))
		if err != nil || len(ev) != 0 {
			t.Fatalf("arrive %d: ev=%v err=%v", i, ev, err)
		}
	}
	_, ev, err := w.Arrive(tuple.New(4, tuple.Int(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || !ev[0].Vals[0].Identical(tuple.Int(1)) {
		t.Fatalf("evicted = %v, want oldest (1)", ev)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d", w.Len())
	}
	var vals []int64
	w.Contents(func(tp tuple.Tuple) bool { vals = append(vals, tp.Vals[0].I); return true })
	if len(vals) != 3 || vals[0] != 2 || vals[2] != 4 {
		t.Errorf("contents = %v", vals)
	}
}

func TestCountWindowNoTimeExpiry(t *testing.T) {
	w, _ := New(Spec{Type: CountBased, Size: 3}, true)
	arrive(t, w, 1, 1)
	if got := w.ExpireUpTo(1 << 40); len(got) != 0 {
		t.Errorf("count windows must not time-expire: %v", got)
	}
}

func TestNewValidatesSpec(t *testing.T) {
	if _, err := New(Spec{Type: TimeBased, Size: -5}, false); err == nil {
		t.Error("invalid spec accepted")
	}
}

// BenchmarkCountWindowEviction exercises the arrival-driven eviction path:
// once the window is full every Arrive evicts one tuple, and the returned
// evicted slice must come from the window's reusable scratch (the only
// allocation per iteration is the arriving tuple's value slice).
func BenchmarkCountWindowEviction(b *testing.B) {
	w, err := New(Spec{Type: CountBased, Size: 64}, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, evicted, err := w.Arrive(tuple.New(int64(i), tuple.Int(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if i >= 64 && len(evicted) != 1 {
			b.Fatalf("evicted %d tuples at %d", len(evicted), i)
		}
	}
}

// TestStampRun checks the vectorized run admission agrees with per-tuple
// Arrive: same Exp stamp, same arrival count, same monotonicity error.
func TestStampRun(t *testing.T) {
	w, err := New(Spec{Type: TimeBased, Size: 500}, false)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := w.StampRun(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if exp != 600 {
		t.Fatalf("Exp = %d, want 600", exp)
	}
	if w.Arrivals() != 8 {
		t.Fatalf("Arrivals = %d, want 8", w.Arrivals())
	}
	// Equal timestamps are fine; regressions are not.
	if _, err := w.StampRun(100, 1); err != nil {
		t.Fatalf("equal-TS run rejected: %v", err)
	}
	if _, err := w.StampRun(99, 1); err == nil {
		t.Fatal("regressing-TS run accepted")
	}
	// Arrive after StampRun sees the advanced cursor.
	if _, _, err := w.Arrive(tuple.New(99, tuple.Int(1))); err == nil {
		t.Fatal("Arrive accepted a timestamp behind StampRun's cursor")
	}

	unb, err := New(Unbounded, false)
	if err != nil {
		t.Fatal(err)
	}
	exp, err = unb.StampRun(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exp != tuple.NeverExpires {
		t.Fatalf("unbounded Exp = %d, want NeverExpires", exp)
	}

	mat, err := New(Spec{Type: TimeBased, Size: 500}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.StampRun(1, 1); err == nil {
		t.Fatal("StampRun accepted a materialized window")
	}
}
