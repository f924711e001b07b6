package operator

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
)

// TestLoadStateRejectsCorruptSections feeds each keyed operator a section
// that its own SaveState can never write and requires checkpoint.ErrCorrupt,
// not a silently inconsistent state.
func TestLoadStateRejectsCorruptSections(t *testing.T) {
	tp := linkTuple(1, 20, 3, "ftp", 7)
	all := []int{0, 1, 2}
	cases := []struct {
		name  string
		op    func(t *testing.T) checkpoint.Snapshotter
		write func(enc *checkpoint.Encoder)
	}{
		{"distinct-delta auxiliary without a representative",
			func(*testing.T) checkpoint.Snapshotter { return NewDistinctDelta(linkSchema(), 40, 4) },
			func(enc *checkpoint.Encoder) {
				enc.Varint(5)  // clock
				enc.Uvarint(0) // no representatives
				enc.Uvarint(1) // one auxiliary
				enc.Key(tp.Key(all))
				enc.Tuple(tp)
				statebuf.NewPartitioned(4, 40, true).SaveState(enc) // an empty calendar
			}},
		{"negate member index out of range",
			func(t *testing.T) checkpoint.Snapshotter {
				n, err := NewNegate(NegateConfig{Left: linkSchema(), Right: linkSchema(), LeftCols: []int{0}, RightCols: []int{0}, Horizon: 40})
				if err != nil {
					t.Fatal(err)
				}
				return n
			},
			func(enc *checkpoint.Encoder) {
				for range 4 { // clock, W1 size, premature retractions, touches
					enc.Varint(1)
				}
				enc.Uvarint(1) // one W1 group
				enc.Key(tp.Key([]int{0}))
				enc.Uvarint(1) // one entry
				enc.Tuple(tp)
				enc.Bool(true)
				enc.Uvarint(1) // one member, pointing past the entries
				enc.Uvarint(5)
			}},
		{"intersect partner index out of range",
			func(t *testing.T) checkpoint.Snapshotter {
				x, err := NewIntersect(IntersectConfig{Left: linkSchema(), Right: linkSchema(), Horizon: 40})
				if err != nil {
					t.Fatal(err)
				}
				return x
			},
			func(enc *checkpoint.Encoder) {
				for range 4 { // clock, both sizes, touches
					enc.Varint(1)
				}
				enc.Uvarint(1) // side 0: one value with one support
				enc.Key(tp.Key(all))
				enc.Uvarint(1)
				enc.Tuple(tp)
				enc.Uvarint(0) // side 1: none
				enc.Uvarint(1) // one partner link, to a support that is not there
				enc.Uvarint(0)
				enc.Uvarint(7)
			}},
		{"groupby input store the plan does not have",
			func(t *testing.T) checkpoint.Snapshotter {
				g, err := NewGroupBy(GroupByConfig{Input: linkSchema(), GroupCols: []int{1}, Aggs: []AggSpec{{Kind: Count}},
					InputBuf: statebuf.Config{Kind: statebuf.KindFIFO}})
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			func(enc *checkpoint.Encoder) {
				enc.Varint(1)
				enc.Bool(false)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := checkpoint.NewEncoder(&buf)
			c.write(enc)
			if err := enc.Err(); err != nil {
				t.Fatal(err)
			}
			err := c.op(t).LoadState(checkpoint.NewDecoder(&buf))
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("LoadState = %v, want checkpoint.ErrCorrupt", err)
			}
		})
	}
}
