package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndExpiration(t *testing.T) {
	tp := New(10, Int(1), String_("a"))
	if tp.TS != 10 || tp.Exp != NeverExpires || tp.Neg {
		t.Errorf("New = %+v", tp)
	}
	w := tp.WithExp(60)
	if w.Exp != 60 {
		t.Errorf("WithExp = %d", w.Exp)
	}
	if w.Expired(59) {
		t.Error("tuple live at now < exp")
	}
	if !w.Expired(60) {
		t.Error("tuple expired at now == exp")
	}
	// WithExp never extends.
	if w.WithExp(100).Exp != 60 {
		t.Error("WithExp must not extend expiration")
	}
}

func TestNegativeTwin(t *testing.T) {
	tp := New(5, Int(1)).WithExp(55)
	n := tp.Negative(30)
	if !n.Neg || n.TS != 30 || n.Exp != 55 || !n.SameVals(tp) {
		t.Errorf("Negative = %+v", n)
	}
}

func TestSameVals(t *testing.T) {
	a := New(1, Int(1), Float(2))
	b := New(9, Int(1), Float(2))
	c := New(1, Int(1), Float(3))
	d := New(1, Int(1))
	if !a.SameVals(b) {
		t.Error("a should match b (timestamps ignored)")
	}
	if a.SameVals(c) || a.SameVals(d) {
		t.Error("value or arity mismatch must not match")
	}
	// Cross-kind numeric equality applies to SameVals too.
	if !New(0, Int(2)).SameVals(New(0, Float(2))) {
		t.Error("2 and 2.0 are the same value")
	}
}

func TestKeyPackingNarrowAndWide(t *testing.T) {
	tp := New(0, Int(1), Int(2), Int(3), Int(4), Int(5))
	k1 := tp.Key([]int{0})
	k1b := New(0, Int(1)).Key([]int{0})
	if k1 != k1b {
		t.Error("single-column keys with equal values must be ==")
	}
	k3 := tp.Key([]int{0, 1, 2})
	if k3 == k1 {
		t.Error("different arity keys must differ")
	}
	k5 := tp.Key([]int{0, 1, 2, 3, 4})
	k5b := tp.Key([]int{0, 1, 2, 3, 4})
	if k5 != k5b {
		t.Error("wide keys with equal values must be ==")
	}
	k5c := New(0, Int(1), Int(2), Int(3), Int(4), Int(6)).Key([]int{0, 1, 2, 3, 4})
	if k5 == k5c {
		t.Error("wide keys with different values must differ")
	}
	if k5.Hash64() != k5b.Hash64() {
		t.Error("equal wide keys must hash equal")
	}
	if !strings.Contains(k3.String(), "1") {
		t.Errorf("key string: %q", k3.String())
	}
	if k5.String() == "" {
		t.Error("wide key string empty")
	}
}

func TestKeyStringAmbiguity(t *testing.T) {
	// Int 1 and string "1" must produce different wide keys.
	a := New(0, Int(1), Int(1), Int(1), Int(1)).Key([]int{0, 1, 2, 3})
	b := New(0, String_("1"), Int(1), Int(1), Int(1)).Key([]int{0, 1, 2, 3})
	if a == b {
		t.Error("kind must be part of wide key encoding")
	}
}

// TestKeyFromRawLegacyNaN: an older encoder stored a NaN key column as the
// string "\x00NaN" (and "\x00NaN/3" inside a wide key). Decoding translates
// it, so a restored key still matches the NaN tuples it was built from.
func TestKeyFromRawLegacyNaN(t *testing.T) {
	nan := New(0, Int(1), Float(math.NaN()), String_("a"), Int(2))
	narrow, wide := []int{0, 1}, []int{0, 1, 2, 3}
	if k := KeyFromRaw(2, [3]Value{Int(1), String_(legacyNaN)}, ""); k != nan.Key(narrow) || !nan.KeyMatches(narrow, k) {
		t.Errorf("legacy narrow key %v does not match %v", k, nan.Key(narrow))
	}
	legacyWide := "1/1\x1f" + legacyNaNPart + "\x1fa/3\x1f2/1"
	if k := KeyFromRaw(4, [3]Value{}, legacyWide); k != nan.Key(wide) || !nan.KeyMatches(wide, k) {
		t.Errorf("legacy wide key %q does not match %q", k.String(), nan.Key(wide).String())
	}
	for _, cols := range [][]int{narrow, wide} {
		n, v, w := nan.Key(cols).Raw()
		if KeyFromRaw(n, v, w) != nan.Key(cols) {
			t.Errorf("Raw/KeyFromRaw round trip over %d columns changed the key", len(cols))
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	orig := New(1, Int(7))
	cl := orig.Clone()
	cl.Vals[0] = Int(8)
	if orig.Vals[0] != Int(7) {
		t.Error("Clone must deep-copy Vals")
	}
}

func TestConcat(t *testing.T) {
	a := New(10, Int(1)).WithExp(100)
	b := New(20, Int(2)).WithExp(50)
	c := a.Concat(b, 20)
	if c.TS != 20 || c.Exp != 50 || len(c.Vals) != 2 {
		t.Errorf("Concat = %+v", c)
	}
	if c.Vals[0] != Int(1) || c.Vals[1] != Int(2) {
		t.Errorf("Concat vals = %v", c.Vals)
	}
	// Exp is the minimum regardless of order.
	if d := b.Concat(a, 20); d.Exp != 50 {
		t.Errorf("Concat exp = %d", d.Exp)
	}
}

func TestTupleString(t *testing.T) {
	s := New(3, Int(1)).WithExp(9).String()
	if !strings.HasPrefix(s, "+(") || !strings.Contains(s, "@3") || !strings.Contains(s, "..9") {
		t.Errorf("String = %q", s)
	}
	n := New(3, Int(1)).Negative(4).String()
	if !strings.HasPrefix(n, "-(") {
		t.Errorf("negative String = %q", n)
	}
}

func TestKeyEqualityMatchesValsProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(5)
			mk := func() Tuple {
				vals := make([]Value, n)
				for i := range vals {
					vals[i] = randomValue(r)
				}
				return New(0, vals...)
			}
			args[0] = reflect.ValueOf(mk())
			args[1] = reflect.ValueOf(mk())
			cols := make([]int, n)
			for i := range cols {
				cols[i] = i
			}
			args[2] = reflect.ValueOf(cols)
		},
	}
	prop := func(a, b Tuple, cols []int) bool {
		// Keys over all columns are equal iff SameVals.
		return (a.Key(cols) == b.Key(cols)) == a.SameVals(b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
