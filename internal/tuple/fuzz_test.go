package tuple_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// specialFloats are the floats whose equality is easy to get wrong: both
// zeros, two NaN payloads, the infinities, and the edges of the int64 range
// and of exact integer floats.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xFFF0_0000_0000_0001),
	math.Inf(1), math.Inf(-1), 0x1p53, -0x1p53, 0x1p63, -0x1p63, 0.5, -1.5,
}

// fuzzValues decodes up to three values from data. Each starts with a
// selector byte:
//
//	0 null
//	1 an int from the next 8 bytes
//	2 a float from the next 8 bytes, taken as IEEE bits (any NaN payload)
//	3 a string: a length byte, then up to that many bytes
//	4 an int within ±64 of ±2^53: a byte's top bit is the sign, its low seven
//	  bits the offset
//	5 the float of that int (integral, and rounded beyond 2^53)
//	6 a special float, indexed by the next byte
//	7 a small integral float, from a signed byte
func fuzzValues(data []byte) []tuple.Value {
	var vals []tuple.Value
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		data = data[copy(w[:], data):]
		return binary.LittleEndian.Uint64(w[:])
	}
	near53 := func() int64 {
		b := next()
		i := int64(1)<<53 + int64(b&0x7F) - 64
		if b&0x80 != 0 {
			i = -i
		}
		return i
	}
	for len(data) > 0 && len(vals) < 3 {
		switch next() % 8 {
		case 0:
			vals = append(vals, tuple.Null)
		case 1:
			vals = append(vals, tuple.Int(int64(word())))
		case 2:
			vals = append(vals, tuple.Float(math.Float64frombits(word())))
		case 3:
			n := min(int(next()), len(data))
			vals = append(vals, tuple.String_(string(data[:n])))
			data = data[n:]
		case 4:
			vals = append(vals, tuple.Int(near53()))
		case 5:
			vals = append(vals, tuple.Float(float64(near53())))
		case 6:
			vals = append(vals, tuple.Float(specialFloats[int(next())%len(specialFloats)]))
		case 7:
			vals = append(vals, tuple.Float(float64(int8(next()))))
		}
	}
	return vals
}

// zeroValues are the four values whose payloads are all zero; only the kind
// in the string header tells them apart.
var zeroValues = []tuple.Value{tuple.Null, tuple.Int(0), tuple.Float(0), tuple.String_("")}

// FuzzValue checks that the three views of value equality agree and that
// every copy keeps a value bit for bit. Each input's values are checked
// together with zeroValues:
//   - Equal ⇔ Key == ⇔ Value.Key == ⇔ KeyMatches, on a narrow and on a wide
//     key, and Equal ⇒ equal KeyHash64 (which is also the Key's own Hash64);
//   - Compare is antisymmetric and transitive;
//   - a copy, Encoder.Value then Decoder.Value, and a ColBatch row round trip
//     each return an Identical value: one kind, float bits included.
func FuzzValue(f *testing.F) {
	f.Add([]byte{4, 65, 5, 64, 4, 64})                // 2^53+1, Float(2^53), 2^53
	f.Add([]byte{6, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0x80}) // Float(2^63), Int(MinInt64)
	f.Add([]byte{6, 2, 6, 3, 3, 4, 0, 'N', 'a', 'N'}) // two NaNs, the old NaN sentinel
	f.Add([]byte{6, 0, 6, 1, 1})                      // +0, -0, Int(0)
	f.Add([]byte{6, 4, 6, 5, 3, 3, 'I', 'n', 'f'})    // ±Inf, a string
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}) // String_(""), Null, Int(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := append(fuzzValues(data), zeroValues...)
		narrow, wide := []int{0}, []int{0, 1, 2, 3}
		row := func(v tuple.Value) tuple.Tuple {
			return tuple.New(0, v, tuple.Null, tuple.Int(7), tuple.String_("w"))
		}
		for _, a := range vals {
			for _, b := range vals {
				eq := a.Equal(b)
				for _, cols := range [][]int{narrow, wide} {
					ta, tb := row(a), row(b)
					ka, kb := ta.Key(cols), tb.Key(cols)
					if (ka == kb) != eq || (a.Key() == b.Key()) != eq || ta.KeyMatches(cols, kb) != eq {
						t.Fatalf("%#v.Equal(%#v) = %v, but over %d columns Key == is %v and KeyMatches %v",
							a, b, eq, len(cols), ka == kb, ta.KeyMatches(cols, kb))
					}
					if ta.KeyHash64(cols) != ka.Hash64() {
						t.Fatalf("KeyHash64 of %#v over %d columns differs from its Key's Hash64", a, len(cols))
					}
					if eq && ta.KeyHash64(cols) != tb.KeyHash64(cols) {
						t.Fatalf("%#v and %#v are Equal but their KeyHash64s differ", a, b)
					}
				}
				if a.Compare(b) != -b.Compare(a) {
					t.Fatalf("Compare(%#v, %#v) = %d, reversed %d", a, b, a.Compare(b), b.Compare(a))
				}
				for _, c := range vals {
					ab, bc, ac := a.Compare(b), b.Compare(c), a.Compare(c)
					if ab <= 0 && bc <= 0 && ac > 0 || ab == 0 && bc == 0 && ac != 0 {
						t.Fatalf("Compare is not transitive on %#v, %#v, %#v: %d %d %d", a, b, c, ab, bc, ac)
					}
				}
			}
			copied := append([]tuple.Value(nil), a)
			if c := copied[0]; c.Kind() != a.Kind() || !c.Identical(a) {
				t.Fatalf("a copy of %#v reads as %#v, kind %v", a, c, c.Kind())
			}
			var buf bytes.Buffer
			checkpoint.NewEncoder(&buf).Value(a)
			dec := checkpoint.NewDecoder(&buf)
			if got := dec.Value(); !got.Identical(a) || dec.Err() != nil {
				t.Fatalf("codec round trip of %#v returned %#v (%v)", a, got, dec.Err())
			}
			if a.IsNull() {
				continue // a columnar batch holds no nulls
			}
			cb := tuple.NewColBatch(tuple.MustSchema(tuple.Column{Name: "c", Kind: a.Kind()}))
			in, arena := tuple.NewInterner(), new(tuple.ValueArena)
			if !cb.AppendVals(1, 2, false, []tuple.Value{a}, in) {
				t.Fatalf("a ColBatch of kind %v refused %#v", a.Kind(), a)
			}
			if got := cb.RowTuple(0, arena, in).Vals[0]; !got.Identical(a) {
				t.Fatalf("ColBatch round trip of %#v returned %#v", a, got)
			}
		}
	})
}

// TestZeroValuesApart: the four values with all-zero payloads keep their
// kinds through every constructor that can build them, and only Int(0) and
// Float(0) are Equal (numbers compare by value across kinds), sharing a Key.
func TestZeroValuesApart(t *testing.T) {
	kinds := []tuple.Kind{tuple.KindNull, tuple.KindInt, tuple.KindFloat, tuple.KindString}
	empty := "x"[1:]
	built := [][]tuple.Value{
		{tuple.Null, tuple.Value{}},
		{tuple.Int(0), tuple.Bool(false)},
		{tuple.Float(0), tuple.FloatBits(0)},
		{tuple.String_(""), tuple.String_(empty), tuple.String_(string([]byte{}))},
	}
	in := tuple.NewInterner()
	in.Intern("")
	built[3] = append(built[3], in.Value(0))
	for i, vs := range built {
		for _, v := range vs {
			if v.Kind() != kinds[i] {
				t.Errorf("%#v reads as kind %v, want %v", v, v.Kind(), kinds[i])
			}
		}
	}
	for i, a := range zeroValues {
		for j, b := range zeroValues {
			numeric := i != j && (i == 1 || i == 2) && (j == 1 || j == 2)
			if want := i == j || numeric; a.Equal(b) != want || (a.Key() == b.Key()) != want {
				t.Errorf("%v %v and %v %v: Equal %v, Key == %v, want %v",
					a.Kind(), a, b.Kind(), b, a.Equal(b), a.Key() == b.Key(), want)
			}
			if a.Identical(b) != (i == j) {
				t.Errorf("%v and %v: Identical %v", a.Kind(), b.Kind(), a.Identical(b))
			}
		}
	}
	if reflect.TypeOf(tuple.Value{}).Comparable() {
		t.Error("Value must not be comparable: == would equate the zero values")
	}
}
