package statebuf

// Allocation-regression gate for calendar maintenance: once the partition
// slices and the expiry scratch buffer have warmed to working-set capacity,
// the steady-state insert/expire cycle must not allocate — ExpireUpTo reuses
// b.scratch, partitions keep capacity across drains. This is what makes lazy
// re-evaluation cadences cheap; a failure means a change re-introduced
// per-tick allocations in buffer maintenance.
//
// Skipped under -race (detector bookkeeping allocates); CI runs a non-race
// step for the gates.

import (
	"fmt"
	"testing"

	"repro/internal/race"
	"repro/internal/tuple"
)

func TestPartitionedExpireSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	const horizon = 40
	for _, byExp := range []bool{true, false} {
		name := "unsorted"
		if byExp {
			name = "sorted-by-exp"
		}
		t.Run(name, func(t *testing.T) {
			b := NewPartitioned(8, horizon, byExp)
			vals := []tuple.Value{tuple.Int(7)}
			now := int64(0)
			tick := func() {
				now++
				b.Insert(tuple.Tuple{TS: now, Exp: now + horizon, Vals: vals})
				b.ExpireUpTo(now)
			}
			// Warm past one full horizon so every partition slice and the
			// scratch buffer have reached steady-state capacity.
			for i := 0; i < 3*horizon; i++ {
				tick()
			}
			if got := testing.AllocsPerRun(200, tick); got > 0 {
				t.Errorf("steady-state insert+expire: %.1f allocs/tick, want 0", got)
			}
		})
	}
}

// TestKeyedCalendarSteadyStateAllocFree holds every kind on the keyed store —
// the indexed calendar, the indexed FIFO and the hash — to the same budget:
// once the entry pages, the reference runs, the index map and the scratch
// slices have reached working-set size, insert + probe + expire (and a
// retraction with its stale reference or released entry) allocate nothing —
// entries and chain links are slab slots, and the digest of a wide key is
// computed from the values, not from a rendered Key.
func TestKeyedCalendarSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	const horizon = 40
	wide := []int{0, 1, 2, 3, 4}
	type keyed struct {
		name string
		cfg  Config
	}
	var kinds []keyed
	for _, keyCols := range [][]int{{0}, wide} {
		for _, byExp := range []bool{true, false} {
			kinds = append(kinds, keyed{fmt.Sprintf("key%v/byExp=%v", keyCols, byExp),
				Config{Kind: KindPartitioned, KeyCols: keyCols, Partitions: 8, Horizon: horizon, SortedByExp: byExp}})
		}
		for _, kind := range []Kind{KindIndexedFIFO, KindHash} {
			kinds = append(kinds, keyed{fmt.Sprintf("%v/key%v", kind, keyCols), Config{Kind: kind, KeyCols: keyCols}})
		}
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			b := New(k.cfg)
			pa := b.(ProbeAppender)
			rows := make([][]tuple.Value, 16)
			for i := range rows {
				rows[i] = []tuple.Value{tuple.Int(int64(i % 7)), tuple.String_("ftp"), tuple.Int(1), tuple.Float(2.5), tuple.Null}
			}
			probe := tuple.Tuple{Vals: rows[3]}.Key(k.cfg.KeyCols)
			now := int64(0)
			var hits []tuple.Tuple
			tick := func() {
				now++
				b.Insert(tuple.Tuple{TS: now, Exp: now + horizon - now%3, Vals: rows[now%16]})
				hits = pa.ProbeAppend(probe, now, hits[:0])
				if now%5 == 0 {
					b.Remove(tuple.Tuple{Exp: now + horizon - now%3, Neg: true, Vals: rows[now%16]})
				}
				b.ExpireUpTo(now)
			}
			for i := 0; i < 3*horizon; i++ {
				tick()
			}
			if got := testing.AllocsPerRun(200, tick); got > 0 {
				t.Errorf("steady-state insert+probe+expire: %.1f allocs/tick, want 0", got)
			}
		})
	}
}
