package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		Kind(9):    "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind != KindInt || v.AsInt() != 42 || v.AsFloat() != 42 {
		t.Errorf("Int(42) = %+v", v)
	}
	if v := Float(2.5); v.Kind != KindFloat || v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("Float(2.5) = %+v", v)
	}
	if v := String_("x"); v.Kind != KindString || v.S != "x" {
		t.Errorf("String_ = %+v", v)
	}
	if v := String_("x"); v.AsInt() != 0 || v.AsFloat() != 0 {
		t.Errorf("string numeric accessors should be 0")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Errorf("IsNull misbehaves")
	}
	if Bool(true) != Int(1) || Bool(false) != Int(0) {
		t.Errorf("Bool encoding wrong")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	ordered := []Value{
		Null,
		Float(math.NaN()),
		Int(-5),
		Float(-4.5),
		Int(0),
		Float(0.5),
		Int(1),
		Int(7),
		Float(7.5),
		String_(""),
		String_("a"),
		String_("ab"),
		String_("b"),
	}
	for i, a := range ordered {
		for j, b := range ordered {
			got := a.Compare(b)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestValueNumericCrossKindEquality(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Errorf("Int(3) should equal Float(3)")
	}
	if Int(3).Hash64() != Float(3.0).Hash64() {
		t.Errorf("equal numeric values must hash equal")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Errorf("Int(3) must not equal Float(3.5)")
	}
}

func TestValueNaN(t *testing.T) {
	nan := Float(math.NaN())
	if nan.Compare(nan) != 0 {
		t.Errorf("NaN must equal NaN under the total order")
	}
	if nan.Compare(Float(0)) != -1 || Float(0).Compare(nan) != 1 {
		t.Errorf("NaN must order below other floats")
	}
}

// TestValueExactIntFloat pins the two cross-kind cases where rounding an int
// to a float, or a float to an int, made Equal disagree with Key: Int(2^53+1)
// used to equal Float(2^53), so Equal was not transitive, and Float(2^63)
// packed as Int(MinInt64). Equal must hold exactly when the keys agree.
func TestValueExactIntFloat(t *testing.T) {
	const p53 = 1 << 53
	vals := []Value{Int(p53), Float(p53), Int(p53 + 1), Float(0x1p63), Int(math.MinInt64)}
	for _, a := range vals {
		for _, b := range vals {
			eq := a.Equal(b)
			ka, kb := New(0, a).Key([]int{0}), New(0, b).Key([]int{0})
			if eq != (ka == kb) {
				t.Errorf("%#v.Equal(%#v) = %v, but key equality is %v", a, b, eq, ka == kb)
			}
			if eq && a.Hash64() != b.Hash64() {
				t.Errorf("%#v and %#v are Equal but hash apart", a, b)
			}
		}
	}
	if !Int(p53).Equal(Float(p53)) {
		t.Error("Int(2^53) must equal Float(2^53)")
	}
	if Int(p53+1).Compare(Float(p53)) != 1 || Float(p53).Compare(Int(p53+1)) != -1 {
		t.Error("Int(2^53+1) must order above Float(2^53)")
	}
	if Float(0x1p63).Compare(Int(math.MaxInt64)) != 1 || Int(math.MinInt64).Compare(Float(0x1p63)) != -1 {
		t.Error("Float(2^63) must order above every int")
	}
	if Float(-0x1p63).Compare(Int(math.MinInt64)) != 0 {
		t.Error("Float(-2^63) must equal Int(MinInt64)")
	}
	if Int(-2).Compare(Float(-2.5)) != 1 || Int(2).Compare(Float(2.5)) != -1 {
		t.Error("a fraction must break a tie on the integral part")
	}
}

// TestValueFloatBits checks that a float keeps its exact bits in I, so ==
// is bitwise while Equal and Key fold ±0, integral floats and NaN payloads.
func TestValueFloatBits(t *testing.T) {
	negZero, otherNaN := Float(math.Copysign(0, -1)), Float(math.Float64frombits(0x7FF8_0000_0000_00FF))
	if Float(0) == negZero || !Float(0).Equal(negZero) || New(0, Float(0)).Key([]int{0}) != New(0, negZero).Key([]int{0}) {
		t.Error("+0 and -0 must differ under == and agree under Equal and Key")
	}
	if math.Float64bits(otherNaN.F()) != 0x7FF8_0000_0000_00FF || !otherNaN.Equal(Float(math.NaN())) ||
		New(0, otherNaN).Key([]int{0}) != New(0, Float(math.NaN())).Key([]int{0}) {
		t.Error("a NaN payload must survive in the value and fold in Key")
	}
	if Int(5).F() != 0 || String_("x").F() != 0 || Float(2.5).F() != 2.5 {
		t.Error("F must return the float payload and 0 for every other kind")
	}
	nanStr := String_("\x00NaN")
	if nanStr.Equal(Float(math.NaN())) || New(0, nanStr).Key([]int{0}) == New(0, Float(math.NaN())).Key([]int{0}) {
		t.Error("no string may share NaN's key")
	}
}

// TestValueLayout pins the sizes every stored row pays for, so a field added
// later fails here instead of regrowing every window, state buffer and view.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Key{}); got != 120 {
		t.Errorf("Key is %d bytes, want 120", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 48 {
		t.Errorf("Tuple is %d bytes, want 48", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-7), "-7"},
		{Float(1.25), "1.25"},
		{String_("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(KindInt, "123")
	if err != nil || v != Int(123) {
		t.Errorf("ParseValue int: %v %v", v, err)
	}
	v, err = ParseValue(KindFloat, "1.5")
	if err != nil || v != Float(1.5) {
		t.Errorf("ParseValue float: %v %v", v, err)
	}
	v, err = ParseValue(KindString, "abc")
	if err != nil || v != String_("abc") {
		t.Errorf("ParseValue string: %v %v", v, err)
	}
	if _, err = ParseValue(KindInt, "xyz"); err == nil {
		t.Errorf("ParseValue should fail on bad int")
	}
	if v, err = ParseValue(KindNull, "anything"); err != nil || !v.IsNull() {
		t.Errorf("ParseValue null: %v %v", v, err)
	}
	if _, err = ParseValue(Kind(99), "x"); err == nil {
		t.Errorf("ParseValue should fail on unknown kind")
	}
}

// randomValue draws from all kinds, biased toward collisions so equality
// paths get exercised.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null
	case 1:
		return Int(int64(r.Intn(16) - 8))
	case 2:
		return Float(float64(r.Intn(16)-8) / 2)
	default:
		letters := []string{"", "a", "b", "ab", "xyz"}
		return String_(letters[r.Intn(len(letters))])
	}
}

func TestValueCompareProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r))
			args[1] = reflect.ValueOf(randomValue(r))
			args[2] = reflect.ValueOf(randomValue(r))
		},
	}
	// Antisymmetry and hash consistency.
	prop := func(a, b, c Value) bool {
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Equal(b) && a.Hash64() != b.Hash64() {
			return false
		}
		// Transitivity of <=.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestValueHashDistribution(t *testing.T) {
	// Sanity: distinct small ints should not all collide.
	seen := map[uint64]bool{}
	for i := int64(0); i < 64; i++ {
		seen[Int(i).Hash64()] = true
	}
	if len(seen) < 60 {
		t.Errorf("poor hash distribution: %d distinct hashes for 64 ints", len(seen))
	}
}
