package tuple

import (
	"fmt"
	"math"
	"testing"
)

// Key construction sits on the hot path of every keyed buffer, join probe,
// and shard-routing decision, so the narrow (≤3 column) form must not
// allocate at all and the wide form must allocate only its single backing
// buffer.

func benchTuple(width int) Tuple {
	vals := make([]Value, width)
	for i := range vals {
		switch i % 3 {
		case 0:
			vals[i] = Int(int64(i) * 7)
		case 1:
			vals[i] = String_("proto")
		default:
			vals[i] = Float(float64(i) + 0.5)
		}
	}
	return Tuple{TS: 1, Exp: 100, Vals: vals}
}

func seqCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// TestKeyNarrowZeroAllocs pins the allocation contract: packing up to three
// columns into a Key performs zero heap allocations.
func TestKeyNarrowZeroAllocs(t *testing.T) {
	tup := benchTuple(3)
	for n := 1; n <= 3; n++ {
		cols := seqCols(n)
		allocs := testing.AllocsPerRun(1000, func() {
			k := tup.Key(cols)
			if k.n != n {
				t.Fatal("bad key")
			}
		})
		if allocs != 0 {
			t.Errorf("Key over %d columns: %v allocs/op, want 0", n, allocs)
		}
	}
}

// TestKeyWideSingleAlloc pins the wide path to exactly one allocation (the
// packed string) now that fmt is out of the loop.
func TestKeyWideSingleAlloc(t *testing.T) {
	tup := benchTuple(6)
	cols := seqCols(6)
	allocs := testing.AllocsPerRun(1000, func() {
		k := tup.Key(cols)
		if k.n != 6 {
			t.Fatal("bad key")
		}
	})
	if allocs > 1 {
		t.Errorf("Key over 6 columns: %v allocs/op, want <= 1", allocs)
	}
}

// TestKeyWideEquivalence checks the manual byte rendering agrees with the
// Value.String contract the old fmt-based packing used, so equal tuples
// still collide and unequal ones still separate.
func TestKeyWideEquivalence(t *testing.T) {
	cols := seqCols(4)
	a := Tuple{Vals: []Value{Int(7), String_("ftp"), Float(2.5), Null}}
	b := Tuple{Vals: []Value{Float(7), String_("ftp"), Float(2.5), Null}} // integral float ≡ int
	c := Tuple{Vals: []Value{Int(7), String_("ftp"), Float(2.5), Int(0)}}
	if a.Key(cols) != b.Key(cols) {
		t.Error("integral float and int must produce equal wide keys")
	}
	if a.Key(cols) == c.Key(cols) {
		t.Error("NULL and 0 must produce distinct wide keys")
	}
	want := "7/1\x1fftp/3\x1f2.5/2\x1fNULL/0"
	if got := a.Key(cols); got.wide != want {
		t.Errorf("wide rendering = %q, want %q", got.wide, want)
	}
}

// TestKeyMatchesWideZeroAllocs pins the satellite fix: verifying a tuple
// against a wide (>3 column) key compares incrementally against the packed
// rendering instead of re-deriving a second rendering, so keyed-view lookups
// on wide keys allocate nothing per visit.
func TestKeyMatchesWideZeroAllocs(t *testing.T) {
	for _, width := range []int{4, 8} {
		tup := benchTuple(width)
		cols := seqCols(width)
		k := tup.Key(cols)
		allocs := testing.AllocsPerRun(1000, func() {
			if !tup.KeyMatches(cols, k) {
				t.Fatal("key must match itself")
			}
		})
		if allocs != 0 {
			t.Errorf("KeyMatches over %d columns: %v allocs/op, want 0", width, allocs)
		}
	}
}

// TestKeyMatchesWideEquivalence cross-checks the incremental wide comparison
// against the reference definition (render both keys, compare ==) over
// tuples that agree, disagree per column, and collide canonically.
func TestKeyMatchesWideEquivalence(t *testing.T) {
	cols := seqCols(4)
	base := Tuple{Vals: []Value{Int(7), String_("ftp"), Float(2.5), Null}}
	cases := []Tuple{
		base,
		{Vals: []Value{Float(7), String_("ftp"), Float(2.5), Null}}, // integral float ≡ int
		{Vals: []Value{Int(8), String_("ftp"), Float(2.5), Null}},
		{Vals: []Value{Int(7), String_("ftps"), Float(2.5), Null}},
		{Vals: []Value{Int(7), String_("ft"), Float(2.5), Null}},
		{Vals: []Value{Int(7), String_("ftp"), Float(2.25), Null}},
		{Vals: []Value{Int(7), String_("ftp"), Float(2.5), Int(0)}},
		{Vals: []Value{Int(7), String_("ftp\x1f2.5/2\x1fNULL"), Float(2.5), Null}}, // separator injection
	}
	k := base.Key(cols)
	for i, tc := range cases {
		want := tc.Key(cols) == k
		if got := tc.KeyMatches(cols, k); got != want {
			t.Errorf("case %d: KeyMatches = %v, reference = %v", i, got, want)
		}
	}
}

func BenchmarkKeyMatchesWide(b *testing.B) {
	for _, width := range []int{4, 8} {
		tup := benchTuple(width)
		cols := seqCols(width)
		k := tup.Key(cols)
		b.Run(fmt.Sprintf("cols%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !tup.KeyMatches(cols, k) {
					b.Fatal("key must match itself")
				}
			}
		})
	}
}

func BenchmarkKey(b *testing.B) {
	for _, width := range []int{1, 2, 3, 4, 8} {
		tup := benchTuple(width)
		cols := seqCols(width)
		b.Run(fmt.Sprintf("cols%d", width), func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += tup.Key(cols).Hash64()
			}
			_ = sink
		})
	}
}

// TestKeyHash64MatchesKey pins KeyHash64 to its definition, Key(cols).Hash64(),
// over narrow and wide column sets and the canonicalised corner values, and
// checks that the wide form allocates nothing.
func TestKeyHash64MatchesKey(t *testing.T) {
	tups := []Tuple{
		{Vals: []Value{Int(7), String_("ftp"), Float(2.5), Null, Int(-3)}},
		{Vals: []Value{Float(7), String_(""), Float(math.NaN()), Int(0), Float(math.Inf(1))}},
		{Vals: []Value{Int(7), String_("ftp\x1f2.5/2"), Float(1e300), Null, String_("a/3")}},
	}
	for _, tup := range tups {
		for _, cols := range [][]int{{}, {0}, {2}, {1, 3}, {0, 1, 2}, {0, 1, 2, 3}, {4, 3, 2, 1, 0}} {
			if got, want := tup.KeyHash64(cols), tup.Key(cols).Hash64(); got != want {
				t.Errorf("%v over %v: KeyHash64 = %x, Key.Hash64 = %x", tup, cols, got, want)
			}
		}
	}
	wide := benchTuple(8)
	cols := seqCols(8)
	var sink uint64
	if allocs := testing.AllocsPerRun(1000, func() { sink += wide.KeyHash64(cols) }); allocs != 0 {
		t.Errorf("KeyHash64 over 8 columns: %v allocs/op, want 0", allocs)
	}
}
