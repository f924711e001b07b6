package tuple_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// pinnedValues covers all four kinds, the empty string, both zeros, three NaN
// payloads, the int64 edges and the old NaN sentinel string.
var pinnedValues = []struct {
	v    tuple.Value
	hash uint64
	enc  string // checkpoint.Encoder.Value bytes
}{
	{tuple.Null, 0xaf63bd4c8601b7df, "\x00"},
	{tuple.Int(0), 0xa8c7f832281a39c5, "\x01\x00"},
	{tuple.Int(-1), 0x8cf51a8bfca3883d, "\x01\x01"},
	{tuple.Int(math.MinInt64), 0xa8c7783228196045, "\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
	{tuple.Int(math.MaxInt64), 0x8cf59a8bfca461bd, "\x01\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
	{tuple.Float(0), 0xa8c7f832281a39c5, "\x02\x00"},
	{tuple.Float(math.Copysign(0, -1)), 0xa8c7f832281a39c5, "\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"},
	{tuple.Float(math.NaN()), 0x8d1818291ff72671, "\x02\x81\x80\x80\x80\x80\x80\x80\xfc\x7f"},
	{tuple.Float(math.Float64frombits(0x7FF8_0000_0000_00FF)), 0x8d1818291ff72671, "\x02\xff\x81\x80\x80\x80\x80\x80\xfc\x7f"},
	{tuple.Float(math.Float64frombits(0xFFF0_0000_0000_0001)), 0x8d1818291ff72671, "\x02\x81\x80\x80\x80\x80\x80\x80\xf8\xff\x01"},
	{tuple.Float(1.5), 0xaa95e93229a27c80, "\x02\x80\x80\x80\x80\x80\x80\x80\xfc?"},
	{tuple.Float(0x1p63), 0xaae7f53229e89b0c, "\x02\x80\x80\x80\x80\x80\x80\x80\xf0C"},
	{tuple.Float(math.Inf(-1)), 0xaab1a93229ba8a78, "\x02\x80\x80\x80\x80\x80\x80\x80\xf8\xff\x01"},
	{tuple.String_(""), 0xaf63be4c8601b992, "\x03\x00"},
	{tuple.String_("ftp"), 0x3f039089d5aed958, "\x03\x03ftp"},
	{tuple.String_("\x00NaN"), 0x2e664904e762975f, "\x03\x04\x00NaN"},
}

// pinnedKeys are keys over the row of pinnedValues: narrow keys of one to
// three columns and wide keys of four and five.
var pinnedKeys = []struct {
	cols []int
	hash uint64 // KeyHash64, and the Key's own Hash64
	enc  string // checkpoint.Encoder.Key bytes
}{
	{[]int{0}, 0x6312a7ba27624ce, "\x01\x00"},
	{[]int{13}, 0x6389a7ba27fe4f5, "\x01\x03\x00"},
	{[]int{6, 7}, 0xf11bc85d88354723, "\x02\x01\x00\x02\x81\x80\x80\x80\x80\x80\x80\xfc\x7f"},
	{[]int{1, 5, 13}, 0x3c0d2875b71e6d17, "\x03\x01\x00\x01\x00\x03\x00"},
	{[]int{0, 13, 6, 3}, 0xb7ac553b52ba7242, "\x04$NULL/0\x1f/3\x1f0/1\x1f-9223372036854775808/1"},
	{[]int{8, 9, 14, 4, 15}, 0x80d7ab9a4563825e, "\x05.NaN/2\x1fNaN/2\x1fftp/3\x1f9223372036854775807/1\x1f\x00NaN/3"},
}

// TestHashAndCodecPinned pins what the value layout must not move: Hash64,
// KeyHash64 and the checkpoint bytes of values, keys and a tuple. Partition
// routing, digest-ordered checkpoint sections and every checkpoint golden
// depend on them.
func TestHashAndCodecPinned(t *testing.T) {
	vals := make([]tuple.Value, len(pinnedValues))
	for i, p := range pinnedValues {
		vals[i] = p.v
		var buf bytes.Buffer
		checkpoint.NewEncoder(&buf).Value(p.v)
		if got := p.v.Hash64(); got != p.hash {
			t.Errorf("value %d (%v): Hash64 %#x, want %#x", i, p.v, got, p.hash)
		}
		if buf.String() != p.enc {
			t.Errorf("value %d (%v): encoded %q, want %q", i, p.v, buf.String(), p.enc)
		}
	}
	row := tuple.New(0, vals...)
	for _, p := range pinnedKeys {
		k := row.Key(p.cols)
		var buf bytes.Buffer
		checkpoint.NewEncoder(&buf).Key(k)
		if got := row.KeyHash64(p.cols); got != p.hash || k.Hash64() != p.hash {
			t.Errorf("key %v: KeyHash64 %#x, Key.Hash64 %#x, want %#x", p.cols, got, k.Hash64(), p.hash)
		}
		if buf.String() != p.enc {
			t.Errorf("key %v: encoded %q, want %q", p.cols, buf.String(), p.enc)
		}
		if slices.Contains(p.cols, 15) {
			continue // the old NaN sentinel string restores as NaN (KeyFromRaw)
		}
		dec := checkpoint.NewDecoder(&buf)
		if got := dec.Key(); got != k || dec.Err() != nil {
			t.Errorf("key %v: decoded %v (%v), want %v", p.cols, got, dec.Err(), k)
		}
	}
	const tupleEnc = "\x00\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x10" +
		"\x00\x01\x00\x01\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x01\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01" +
		"\x02\x00\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x02\x81\x80\x80\x80\x80\x80\x80\xfc\x7f" +
		"\x02\xff\x81\x80\x80\x80\x80\x80\xfc\x7f\x02\x81\x80\x80\x80\x80\x80\x80\xf8\xff\x01" +
		"\x02\x80\x80\x80\x80\x80\x80\x80\xfc?\x02\x80\x80\x80\x80\x80\x80\x80\xf0C\x02\x80\x80\x80\x80\x80\x80\x80\xf8\xff\x01" +
		"\x03\x00\x03\x03ftp\x03\x04\x00NaN"
	var buf bytes.Buffer
	checkpoint.NewEncoder(&buf).Tuple(row)
	if buf.String() != tupleEnc {
		t.Errorf("tuple encoded %q, want %q", buf.String(), tupleEnc)
	}
	dec := checkpoint.NewDecoder(&buf)
	got := dec.Tuple()
	if dec.Err() != nil || len(got.Vals) != len(vals) {
		t.Fatalf("tuple decoded %v (%v)", got, dec.Err())
	}
	for i, v := range got.Vals {
		if v.Kind() != vals[i].Kind() || v.I != vals[i].I || v.S != vals[i].S {
			t.Errorf("decoded column %d is %#v, want %#v", i, v, vals[i])
		}
	}
}
