package statebuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// snapBuffer is the intersection of Buffer and checkpoint.Snapshotter every
// state buffer must satisfy.
type snapBuffer interface {
	Buffer
	checkpoint.Snapshotter
}

// snapshotVariants pairs each buffer kind with a factory producing a fresh,
// identically-configured instance — the restore contract: configuration comes
// from the plan, only dynamic state travels through the checkpoint.
func snapshotVariants() []struct {
	name string
	make func() snapBuffer
} {
	return []struct {
		name string
		make func() snapBuffer
	}{
		{"fifo", func() snapBuffer { return NewFIFO() }},
		{"list", func() snapBuffer { return NewList() }},
		{"hash", func() snapBuffer { return NewHash([]int{0}) }},
		{"indexedfifo", func() snapBuffer { return keyedFIFO().(snapBuffer) }},
		{"partitioned-lazy", func() snapBuffer { return NewPartitioned(8, 64, false) }},
		{"partitioned-eager", func() snapBuffer { return NewPartitioned(8, 64, true) }},
		{"keyed-lazy", func() snapBuffer { return keyedCal(8, 64, false).(snapBuffer) }},
		{"keyed-eager", func() snapBuffer { return keyedCal(8, 64, true).(snapBuffer) }},
	}
}

func scanAll(b Buffer) []string {
	var out []string
	b.Scan(func(t tuple.Tuple) bool {
		out = append(out, fmt.Sprintf("%v|%d|%d|%v", t.Vals, t.TS, t.Exp, t.Neg))
		return true
	})
	sort.Strings(out)
	return out
}

func renderExpired(ts []tuple.Tuple) []string {
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, fmt.Sprintf("%v|%d|%d", t.Vals, t.TS, t.Exp))
	}
	return out
}

// TestBufferSnapshotRoundTrip exercises each buffer kind with a mixed
// insert/remove/expire workload, checkpoints it, restores into a fresh
// instance, and requires the restored buffer to agree on contents, length,
// cost accounting, and — crucially — on all future expiration behavior.
func TestBufferSnapshotRoundTrip(t *testing.T) {
	for _, v := range snapshotVariants() {
		t.Run(v.name, func(t *testing.T) {
			src := v.make()
			r := rand.New(rand.NewSource(7))
			var inserted []tuple.Tuple
			for i := 0; i < 120; i++ {
				tp := tuple.New(int64(i), tuple.Int(int64(r.Intn(9))), tuple.String_(fmt.Sprintf("s%d", r.Intn(3))))
				tp.Exp = int64(i) + int64(1+r.Intn(50))
				src.Insert(tp)
				inserted = append(inserted, tp)
			}
			// Remove a few mid-stream tuples (negative-tuple path) and run a
			// partial expiration so internal cursors move off their zero values.
			for i := 10; i < 20; i += 3 {
				if !src.Remove(inserted[i]) {
					t.Fatalf("remove of inserted tuple %d failed", i)
				}
			}
			src.ExpireUpTo(40)

			var buf bytes.Buffer
			enc := checkpoint.NewEncoder(&buf)
			if err := src.SaveState(enc); err != nil {
				t.Fatalf("save: %v", err)
			}
			if err := enc.Err(); err != nil {
				t.Fatalf("encoder: %v", err)
			}

			dst := v.make()
			dec := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
			if err := dst.LoadState(dec); err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := dec.Err(); err != nil {
				t.Fatalf("decoder: %v", err)
			}

			if got, want := dst.Len(), src.Len(); got != want {
				t.Fatalf("Len = %d, want %d", got, want)
			}
			if got, want := dst.Touched(), src.Touched(); got != want {
				t.Fatalf("Touched = %d, want %d", got, want)
			}
			gotScan, wantScan := scanAll(dst), scanAll(src)
			if fmt.Sprint(gotScan) != fmt.Sprint(wantScan) {
				t.Fatalf("contents diverge:\n got %v\nwant %v", gotScan, wantScan)
			}

			// Both buffers must behave identically from here on: staged
			// expirations, then a probe-style removal, then draining.
			for _, now := range []int64{55, 70, 171} {
				ge := renderExpired(src.ExpireUpTo(now))
				we := renderExpired(dst.ExpireUpTo(now))
				if fmt.Sprint(ge) != fmt.Sprint(we) {
					t.Fatalf("ExpireUpTo(%d) diverges:\n src %v\n dst %v", now, ge, we)
				}
			}
			if src.Len() != 0 || dst.Len() != 0 {
				t.Fatalf("buffers not drained: src %d dst %d", src.Len(), dst.Len())
			}
		})
	}
}

// TestBufferSnapshotProbeAfterRestore checks that key-indexed buffers rebuild
// their probe index from the checkpoint stream.
func TestBufferSnapshotProbeAfterRestore(t *testing.T) {
	for _, v := range snapshotVariants() {
		src := v.make()
		if _, ok := src.(ProbeAppender); !ok {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			src := v.make()
			for i := 0; i < 30; i++ {
				tp := tuple.New(int64(i), tuple.Int(int64(i%5)), tuple.Int(int64(i)))
				tp.Exp = 1000
				src.Insert(tp)
			}
			var buf bytes.Buffer
			enc := checkpoint.NewEncoder(&buf)
			if err := src.SaveState(enc); err != nil {
				t.Fatal(err)
			}
			dst := v.make()
			if err := dst.LoadState(checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))); err != nil {
				t.Fatal(err)
			}
			k := tuple.New(0, tuple.Int(2)).Key([]int{0})
			count := func(b Buffer) int {
				return len(b.(ProbeAppender).ProbeAppend(k, 0, nil))
			}
			if got, want := count(dst), count(src); got != want || want == 0 {
				t.Fatalf("probe after restore = %d, want %d (nonzero)", got, want)
			}
		})
	}
}

// TestBufferLoadStateRejectsCorruptStream ensures a truncated stream surfaces
// an error (from LoadState or the decoder) rather than silently producing a
// partial buffer.
func TestBufferLoadStateRejectsCorruptStream(t *testing.T) {
	for _, v := range snapshotVariants() {
		t.Run(v.name, func(t *testing.T) {
			src := v.make()
			for i := 0; i < 10; i++ {
				tp := tuple.New(int64(i), tuple.Int(int64(i)))
				tp.Exp = 100
				src.Insert(tp)
			}
			var buf bytes.Buffer
			enc := checkpoint.NewEncoder(&buf)
			if err := src.SaveState(enc); err != nil {
				t.Fatal(err)
			}
			full := buf.Bytes()
			dst := v.make()
			dec := checkpoint.NewDecoder(bytes.NewReader(full[:len(full)/2]))
			err := dst.LoadState(dec)
			if err == nil {
				err = dec.Err()
			}
			if err == nil {
				t.Fatal("truncated stream loaded without error")
			}
		})
	}
}
