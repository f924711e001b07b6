package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/tuple"
)

func vt(ts, exp int64, v int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{tuple.Int(v)}}
}

func TestNewViewKinds(t *testing.T) {
	cfgs := []plan.ViewConfig{
		{Kind: plan.ViewAppend},
		{Kind: plan.ViewFIFO, TimeExpiry: true},
		{Kind: plan.ViewList, TimeExpiry: true},
		{Kind: plan.ViewPartitioned, Horizon: 100, Partitions: 5, TimeExpiry: true},
		{Kind: plan.ViewHash, KeyCols: []int{0}},
		{Kind: plan.ViewKeyed, KeyCols: []int{0}},
	}
	for _, cfg := range cfgs {
		v, err := NewView(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		if v.Len() != 0 {
			t.Errorf("%v: fresh view not empty", cfg.Kind)
		}
	}
	if _, err := NewView(plan.ViewConfig{Kind: plan.ViewKind(99)}); err == nil {
		t.Error("unknown view kind accepted")
	}
	// Partitioned defaults the partition count.
	if _, err := NewView(plan.ViewConfig{Kind: plan.ViewPartitioned, Horizon: 10}); err != nil {
		t.Error(err)
	}
}

func TestBufferViewLifecycle(t *testing.T) {
	for _, kind := range []plan.ViewKind{plan.ViewFIFO, plan.ViewList, plan.ViewPartitioned, plan.ViewHash} {
		cfg := plan.ViewConfig{Kind: kind, Horizon: 100, KeyCols: []int{0}, TimeExpiry: kind != plan.ViewHash}
		v, err := NewView(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v.Apply(vt(1, 50, 7))
		v.Apply(vt(2, 60, 8))
		if v.Len() != 2 {
			t.Fatalf("%v: Len = %d", kind, v.Len())
		}
		// Negative removes.
		v.Apply(vt(3, 60, 8).Negative(3))
		if v.Len() != 1 {
			t.Fatalf("%v: Len after retraction = %d", kind, v.Len())
		}
		// Time expiry (where enabled).
		v.ExpireUpTo(50)
		wantLen := 0
		if kind == plan.ViewHash {
			wantLen = 1 // hash views are retired by retractions only
		}
		if v.Len() != wantLen {
			t.Fatalf("%v: Len after expiry = %d, want %d", kind, v.Len(), wantLen)
		}
		if v.Touched() == 0 {
			t.Errorf("%v: touched not counted", kind)
		}
		_ = v.Snapshot()
	}
}

func TestKeyedViewReplacement(t *testing.T) {
	v, _ := NewView(plan.ViewConfig{Kind: plan.ViewKeyed, KeyCols: []int{0}})
	group := func(g, agg int64) tuple.Tuple {
		return tuple.Tuple{TS: 0, Exp: tuple.NeverExpires, Vals: []tuple.Value{tuple.Int(g), tuple.Int(agg)}}
	}
	v.Apply(group(1, 10))
	v.Apply(group(2, 20))
	v.Apply(group(1, 11)) // replaces the group-1 row
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	rows := v.Snapshot()
	if !rows[0].Vals[1].Identical(tuple.Int(11)) {
		t.Errorf("replacement not applied: %v", rows)
	}
	// Negative removes the group row.
	v.Apply(group(2, 20).Negative(5))
	if v.Len() != 1 {
		t.Errorf("Len after group vanish = %d", v.Len())
	}
	v.ExpireUpTo(1 << 40) // no-op
	if v.Len() != 1 {
		t.Error("keyed views must not time-expire")
	}
}

func TestAppendViewBoundedTail(t *testing.T) {
	v, _ := NewView(plan.ViewConfig{Kind: plan.ViewAppend})
	for i := int64(0); i < int64(appendTailMax)+100; i++ {
		v.Apply(vt(i, tuple.NeverExpires, i))
	}
	if v.Len() != appendTailMax+100 {
		t.Errorf("Len = %d", v.Len())
	}
	if got := len(v.Snapshot()); got > appendTailMax {
		t.Errorf("tail not bounded: %d", got)
	}
	// Negatives are ignored (monotonic output).
	v.Apply(vt(0, tuple.NeverExpires, 0).Negative(1))
	if v.Len() != appendTailMax+100 {
		t.Error("append view must ignore retractions")
	}
	v.ExpireUpTo(1 << 40)
	if v.Len() != appendTailMax+100 {
		t.Error("append view must not expire")
	}
}
