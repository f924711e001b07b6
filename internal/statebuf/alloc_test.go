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
	"sort"
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

// TestListSteadyStateAllocFree holds the DIRECT list, at more pages than the
// freelist caches, to zero allocations per insert + expire tick: expiration
// compacts the survivors in their pages and recycles only the pages it
// empties, so the next inserts find them on the freelist.
func TestListSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	const horizon = 1000
	b := NewList()
	vals := []tuple.Value{tuple.Int(7)}
	now := int64(0)
	tick := func() {
		now++
		b.Insert(tuple.Tuple{TS: now, Exp: now + horizon - now%7, Vals: vals})
		b.ExpireUpTo(now)
	}
	for i := 0; i < 2*horizon; i++ {
		tick()
	}
	if b.Len() <= maxFreePages*chunkSize {
		t.Fatalf("list holds %d tuples, want more than %d pages", b.Len(), maxFreePages)
	}
	if got := testing.AllocsPerRun(200, tick); got > 0 {
		t.Errorf("steady-state insert+expire: %.1f allocs/tick, want 0", got)
	}
}

// TestSortExpiredAllocFree sorts a 64-tuple out-of-order wave without
// allocating, into the order a stable sort by (Exp, TS) gives.
func TestSortExpiredAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	src := make([]tuple.Tuple, 64)
	for i := range src {
		src[i] = tuple.Tuple{TS: int64(i % 5), Exp: int64(100 - i%9), Vals: []tuple.Value{tuple.Int(int64(i))}}
	}
	want := append([]tuple.Tuple(nil), src...)
	sort.SliceStable(want, func(i, j int) bool { return expiresBefore(want[i], want[j]) })
	wave := make([]tuple.Tuple, len(src))
	if got := testing.AllocsPerRun(100, func() { copy(wave, src); sortExpired(wave) }); got > 0 {
		t.Errorf("sortExpired of 64 tuples: %.1f allocs, want 0", got)
	}
	if fmt.Sprint(render(wave)) != fmt.Sprint(render(want)) {
		t.Errorf("sortExpired order differs from a stable sort:\n got %v\nwant %v", render(wave), render(want))
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
