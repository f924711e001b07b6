package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/tuple"
)

// TestEncoderTupleAllocFree writes a row with a string, a bool and a kind
// byte per value without allocating, to a writer that has Write alone:
// nothing is converted into a slice that escapes through io.Writer. A string
// longer than the Encoder's buffer goes out in pieces, byte for byte what a
// writer taking the whole string receives.
func TestEncoderTupleAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	long := strings.Repeat("a string longer than the staging buffer ", 3)
	row := tuple.Tuple{TS: 3, Exp: 9, Neg: true, Vals: []tuple.Value{tuple.Int(7), tuple.String_("ftp"), tuple.Float(2.5), tuple.Null, tuple.String_(long)}}
	enc := NewEncoder(struct{ io.Writer }{io.Discard})
	if got := testing.AllocsPerRun(100, func() { enc.Tuple(row) }); got != 0 {
		t.Errorf("Encoder.Tuple: %.1f allocs, want 0", got)
	}
	var whole, pieces bytes.Buffer
	NewEncoder(&whole).Tuple(row)
	NewEncoder(struct{ io.Writer }{&pieces}).Tuple(row)
	if !bytes.Equal(whole.Bytes(), pieces.Bytes()) {
		t.Errorf("a Write-only writer received %q, want %q", pieces.Bytes(), whole.Bytes())
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Begin()
	enc.Uvarint(0)
	enc.Uvarint(1 << 62)
	enc.Varint(-1)
	enc.Varint(math.MinInt64)
	enc.Varint(math.MaxInt64)
	enc.Bool(true)
	enc.Bool(false)
	enc.String("")
	enc.String("hello, 世界")
	enc.Float(0)
	enc.Float(-1.5)
	enc.Float(math.Inf(1))
	if err := enc.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if enc.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() = %d, wrote %d", enc.Bytes(), buf.Len())
	}

	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.Begin()
	if got := dec.Uvarint(); got != 0 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := dec.Uvarint(); got != 1<<62 {
		t.Fatalf("Uvarint = %d", got)
	}
	for _, want := range []int64{-1, math.MinInt64, math.MaxInt64} {
		if got := dec.Varint(); got != want {
			t.Fatalf("Varint = %d, want %d", got, want)
		}
	}
	if !dec.Bool() || dec.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := dec.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := dec.String(); got != "hello, 世界" {
		t.Fatalf("String = %q", got)
	}
	for _, want := range []float64{0, -1.5, math.Inf(1)} {
		if got := dec.Float(); got != want {
			t.Fatalf("Float = %v, want %v", got, want)
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestFloatNaNRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Float(math.NaN())
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	if got := dec.Float(); !math.IsNaN(got) {
		t.Fatalf("NaN decoded as %v", got)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestValueTupleKeyRoundTrip(t *testing.T) {
	vals := []tuple.Value{
		tuple.Int(-7), tuple.Int(0), tuple.Int(math.MaxInt64),
		tuple.Float(2.5), tuple.String_(""), tuple.String_("ftp"),
		{}, // null
	}
	tuples := []tuple.Tuple{
		tuple.New(1, vals...),
		{TS: 5, Exp: tuple.NeverExpires, Neg: true, Vals: []tuple.Value{tuple.Int(1)}},
		{TS: 9, Exp: 42, Vals: nil},
	}
	wide := tuple.Tuple{Vals: []tuple.Value{
		tuple.Int(1), tuple.String_("a"), tuple.Int(2), tuple.Float(3), tuple.Int(4),
	}}
	keys := []tuple.Key{
		{}, // empty key
		tuples[0].Key([]int{0}),
		tuples[0].Key([]int{0, 3, 5}),
		wide.Key([]int{0, 1, 2, 3, 4}), // wide: rendered form
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, v := range vals {
		enc.Value(v)
	}
	enc.Tuples(tuples)
	for _, k := range keys {
		enc.Key(k)
	}
	if err := enc.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	for i, want := range vals {
		if got := dec.Value(); !got.Equal(want) || got.Kind != want.Kind {
			t.Fatalf("value %d = %v, want %v", i, got, want)
		}
	}
	got := dec.Tuples()
	if len(got) != len(tuples) {
		t.Fatalf("tuples = %d, want %d", len(got), len(tuples))
	}
	for i := range got {
		w := tuples[i]
		if got[i].TS != w.TS || got[i].Exp != w.Exp || got[i].Neg != w.Neg || len(got[i].Vals) != len(w.Vals) {
			t.Fatalf("tuple %d = %+v, want %+v", i, got[i], w)
		}
		for j := range w.Vals {
			if !got[i].Vals[j].Equal(w.Vals[j]) {
				t.Fatalf("tuple %d col %d = %v, want %v", i, j, got[i].Vals[j], w.Vals[j])
			}
		}
	}
	for i, want := range keys {
		// Keys must round-trip to Go-equal values: they are map keys in
		// every hash-shaped state structure.
		if k := dec.Key(); k != want {
			t.Fatalf("key %d = %v, want %v", i, k, want)
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestBeginRejectsBadMagicAndVersion(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte("NOTACKPT")))
	dec.Begin()
	if !errors.Is(dec.Err(), ErrCorrupt) {
		t.Fatalf("bad magic: %v", dec.Err())
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Begin()
	b := buf.Bytes()
	b[len(b)-1] = 99 // future version
	dec = NewDecoder(bytes.NewReader(b))
	dec.Begin()
	if !errors.Is(dec.Err(), ErrVersion) {
		t.Fatalf("future version: %v", dec.Err())
	}
}

// TestTruncationIsCorrupt cuts a valid stream at every byte offset; every
// prefix must decode to an error wrapping ErrCorrupt (or ErrVersion for cuts
// inside the header), never a panic or a silent success.
func TestTruncationIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Begin()
	enc.String("plan")
	enc.Uvarint(4)
	enc.Tuples([]tuple.Tuple{tuple.New(1, tuple.Int(7), tuple.String_("ftp"))})
	enc.Key(tuple.New(1, tuple.Int(7)).Key([]int{0}))
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		dec.Begin()
		_ = dec.String()
		dec.Count()
		dec.Tuples()
		dec.Key()
		err := dec.Err()
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestErrorsLatch(t *testing.T) {
	dec := NewDecoder(bytes.NewReader(nil))
	dec.Begin()
	first := dec.Err()
	if first == nil {
		t.Fatal("empty stream accepted")
	}
	// Further reads keep returning the first error and zero values.
	if dec.Varint() != 0 || dec.String() != "" || dec.Count() != 0 {
		t.Fatal("latched decoder returned non-zero values")
	}
	if dec.Err() != first {
		t.Fatalf("error not latched: %v then %v", first, dec.Err())
	}
}

func TestHostileCountsDoNotAllocate(t *testing.T) {
	// A stream claiming 2^40 tuples must fail on the cap check, not attempt
	// the allocation.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Uvarint(1 << 40)
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.Tuples()
	if !errors.Is(dec.Err(), ErrCorrupt) {
		t.Fatalf("hostile count: %v", dec.Err())
	}
}

// FuzzDecoder drives the full decoder surface over arbitrary input. The
// invariant is memory safety: no panics, no runaway allocations, and after
// any failure the decoder is latched.
func FuzzDecoder(f *testing.F) {
	var seed bytes.Buffer
	enc := NewEncoder(&seed)
	enc.Begin()
	enc.String("strategy=UPA")
	enc.Uvarint(2)
	enc.Varint(-5)
	enc.Tuples([]tuple.Tuple{tuple.New(3, tuple.Int(1), tuple.String_("x"))})
	enc.Key(tuple.New(3, tuple.Int(1)).Key([]int{0}))
	enc.Float(1.5)
	enc.Bool(true)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("UPACKPT\x00\x01")) // stale version: must fail as ErrVersion
	// A v2 stream that dies inside an interner section: the count admits
	// three symbols but the stream truncates mid-string.
	f.Add([]byte("UPACKPT\x00\x02\x03\x03ftp\x04http\x08smt"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		dec.Begin()
		_ = dec.String()
		dec.Count()
		dec.Varint()
		dec.Tuples()
		dec.Key()
		dec.Float()
		dec.Bool()
		if err := dec.Err(); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
	})
}
