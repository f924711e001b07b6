package statebuf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tuple"
)

func mk(ts, exp int64, v int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{tuple.Int(v)}}
}

// keyedFIFO builds what the planner builds for probed WKS state, indexed on
// column 0.
func keyedFIFO() Buffer { return New(Config{Kind: KindIndexedFIFO, KeyCols: []int{0}}) }

// allBuffers builds one of each buffer kind with sensible parameters for the
// given horizon, so shared tests can run across implementations.
func allBuffers(horizon int64) map[string]Buffer {
	return map[string]Buffer{
		"fifo":             NewFIFO(),
		"list":             NewList(),
		"partitioned-lazy": NewPartitioned(7, horizon, false),
		"partitioned-exp":  NewPartitioned(7, horizon, true),
		"partitioned-1":    NewPartitioned(1, horizon, true),
		"keyed-lazy":       keyedCal(7, horizon, false),
		"keyed-exp":        keyedCal(7, horizon, true),
		"hash":             NewHash([]int{0}),
		"indexed-fifo":     keyedFIFO(),
	}
}

func snapshot(b Buffer) []tuple.Tuple {
	var out []tuple.Tuple
	b.Scan(func(t tuple.Tuple) bool { out = append(out, t); return true })
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Exp < out[j].Exp
	})
	return out
}

func TestBuffersBasicInsertExpire(t *testing.T) {
	for name, b := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			b.Insert(mk(1, 101, 10))
			b.Insert(mk(2, 102, 20))
			b.Insert(mk(3, 103, 30))
			if b.Len() != 3 {
				t.Fatalf("Len = %d", b.Len())
			}
			exp := b.ExpireUpTo(102)
			if len(exp) != 2 {
				t.Fatalf("expired %d, want 2: %v", len(exp), exp)
			}
			if exp[0].Exp != 101 || exp[1].Exp != 102 {
				t.Errorf("expired order wrong: %v", exp)
			}
			if b.Len() != 1 {
				t.Errorf("Len after expire = %d", b.Len())
			}
			rest := snapshot(b)
			if len(rest) != 1 || rest[0].Exp != 103 {
				t.Errorf("remaining = %v", rest)
			}
			// Nothing more expires at the same time.
			if again := b.ExpireUpTo(102); len(again) != 0 {
				t.Errorf("double expiration: %v", again)
			}
		})
	}
}

func TestBuffersRemove(t *testing.T) {
	for name, b := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			b.Insert(mk(1, 101, 10))
			b.Insert(mk(2, 102, 20))
			b.Insert(mk(3, 103, 10)) // duplicate value 10, younger
			if !b.Remove(mk(9, 0, 10)) {
				t.Fatal("Remove failed")
			}
			if b.Len() != 2 {
				t.Errorf("Len = %d", b.Len())
			}
			// One tuple with value 10 must remain.
			n10 := 0
			b.Scan(func(tp tuple.Tuple) bool {
				if tp.Vals[0].Identical(tuple.Int(10)) {
					n10++
				}
				return true
			})
			if n10 != 1 {
				t.Errorf("remaining value-10 tuples = %d", n10)
			}
			if b.Remove(mk(9, 0, 99)) {
				t.Error("Remove of absent value should fail")
			}
		})
	}
}

func TestBuffersScanEarlyStop(t *testing.T) {
	for name, b := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 10; i++ {
				b.Insert(mk(i, 100+i, i))
			}
			seen := 0
			b.Scan(func(tuple.Tuple) bool { seen++; return seen < 3 })
			if seen != 3 {
				t.Errorf("early stop visited %d", seen)
			}
		})
	}
}

func TestBuffersTouchedMonotone(t *testing.T) {
	for name, b := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			before := b.Touched()
			b.Insert(mk(1, 101, 1))
			b.Scan(func(tuple.Tuple) bool { return true })
			b.ExpireUpTo(200)
			if b.Touched() <= before {
				t.Error("Touched must grow with activity")
			}
		})
	}
}

func TestFIFOOutOfOrderFallback(t *testing.T) {
	b := NewFIFO()
	b.Insert(mk(1, 200, 1)) // large exp first
	b.Insert(mk(2, 150, 2)) // violates FIFO exp order
	b.Insert(mk(3, 300, 3))
	exp := b.ExpireUpTo(150)
	if len(exp) != 1 || !exp[0].Vals[0].Identical(tuple.Int(2)) {
		t.Fatalf("fallback expiration wrong: %v", exp)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestFIFOCompaction(t *testing.T) {
	b := NewFIFO()
	for i := int64(0); i < 1000; i++ {
		b.Insert(mk(i, i+1, i))
		b.ExpireUpTo(i) // keeps the buffer at ~1 element
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
	if pages := len(b.items.pages); pages > 2 {
		t.Errorf("head pages not recycled: %d pages for %d live tuples", pages, b.Len())
	}
}

// TestFIFOClear empties a FIFO the way a discarded window does: nothing
// stays stored or due, and the buffer stays usable.
func TestFIFOClear(t *testing.T) {
	b := NewFIFO()
	for i := int64(0); i < 3*chunkSize; i++ {
		b.Insert(mk(i, i+100, i))
	}
	b.Clear()
	if b.Len() != 0 || len(snapshot(b)) != 0 {
		t.Fatalf("Len = %d, Scan found %d after Clear", b.Len(), len(snapshot(b)))
	}
	if got := b.ExpireUpTo(1 << 40); len(got) != 0 {
		t.Fatalf("ExpireUpTo after Clear returned %d tuples", len(got))
	}
	b.Insert(mk(7, 107, 7))
	if got := snapshot(b); b.Len() != 1 || len(got) != 1 || got[0].TS != 7 {
		t.Fatalf("after re-insert: Len %d, Scan %v", b.Len(), got)
	}
}

func TestPartitionedOverflowMigration(t *testing.T) {
	b := NewPartitioned(4, 40, true)
	// Exp way beyond the initial horizon.
	far := mk(1, 500, 1)
	b.Insert(far)
	b.Insert(mk(1, 20, 2))
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	// Advance time past the near tuple; far tuple must survive migration.
	exp := b.ExpireUpTo(100)
	if len(exp) != 1 || !exp[0].Vals[0].Identical(tuple.Int(2)) {
		t.Fatalf("expired: %v", exp)
	}
	exp = b.ExpireUpTo(499)
	if len(exp) != 0 {
		t.Fatalf("far tuple expired early: %v", exp)
	}
	exp = b.ExpireUpTo(500)
	if len(exp) != 1 || !exp[0].Vals[0].Identical(tuple.Int(1)) {
		t.Fatalf("far tuple not expired: %v", exp)
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestPartitionedNeverExpires(t *testing.T) {
	b := NewPartitioned(4, 40, false)
	b.Insert(tuple.New(1, tuple.Int(7))) // NeverExpires
	if got := b.ExpireUpTo(1 << 40); len(got) != 0 {
		t.Fatalf("NeverExpires tuple expired: %v", got)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
	if !b.Remove(tuple.New(0, tuple.Int(7))) {
		t.Error("Remove from overflow failed")
	}
}

func TestPartitionedPastDueInsert(t *testing.T) {
	b := NewPartitioned(4, 40, true)
	b.Insert(mk(1, 10, 1))
	b.ExpireUpTo(30)
	// Insert a tuple that is already past due.
	b.Insert(mk(2, 5, 2))
	exp := b.ExpireUpTo(30)
	if len(exp) != 1 || !exp[0].Vals[0].Identical(tuple.Int(2)) {
		t.Fatalf("past-due insert not recovered: %v", exp)
	}
}

func TestHashProbe(t *testing.T) {
	b := NewHash([]int{0})
	b.Insert(mk(1, 101, 10))
	b.Insert(mk(2, 102, 10))
	b.Insert(mk(3, 103, 20))
	hits := len(b.ProbeAppend(mk(0, 0, 10).Key([]int{0}), 0, nil))
	if hits != 2 {
		t.Errorf("probe hits = %d", hits)
	}
	hits = len(b.ProbeAppend(mk(0, 0, 99).Key([]int{0}), 0, nil))
	if hits != 0 {
		t.Errorf("probe of absent key hits = %d", hits)
	}
}

func TestHashRemoveOldestFirst(t *testing.T) {
	b := NewHash([]int{0})
	b.Insert(mk(5, 105, 10))
	b.Insert(mk(1, 101, 10))
	if !b.Remove(mk(0, 0, 10)) {
		t.Fatal("Remove failed")
	}
	rest := snapshot(b)
	if len(rest) != 1 || rest[0].TS != 5 {
		t.Errorf("oldest should be removed first, remaining %v", rest)
	}
}

func TestFactory(t *testing.T) {
	if _, ok := New(Config{Kind: KindFIFO}).(*FIFOBuffer); !ok {
		t.Error("factory fifo")
	}
	if _, ok := New(Config{Kind: KindList}).(*ListBuffer); !ok {
		t.Error("factory list")
	}
	p, ok := New(Config{Kind: KindPartitioned, Horizon: 100}).(*PartitionedBuffer)
	if !ok || p.Partitions() != DefaultPartitions {
		t.Errorf("factory partitioned: %v", p)
	}
	if _, ok := New(Config{Kind: KindHash, KeyCols: []int{0}}).(*HashBuffer); !ok {
		t.Error("factory hash")
	}
	if b, ok := New(Config{Kind: KindIndexedFIFO, KeyCols: []int{0}}).(HashedBuffer); !ok || KindOf(b.(Buffer)) != "indexed-fifo" {
		t.Error("factory indexed-fifo")
	}
	for _, k := range []Kind{KindFIFO, KindList, KindPartitioned, KindHash, KindIndexedFIFO, Kind(99)} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("factory should panic on unknown kind")
		}
	}()
	New(Config{Kind: Kind(99)})
}

// modelBuffer is the trivially-correct reference: a plain slice.
type modelBuffer struct{ items []tuple.Tuple }

func (m *modelBuffer) insert(t tuple.Tuple) { m.items = append(m.items, t) }

func (m *modelBuffer) expireUpTo(now int64) []tuple.Tuple {
	var out []tuple.Tuple
	kept := m.items[:0]
	for _, t := range m.items {
		if t.Exp <= now {
			out = append(out, t)
		} else {
			kept = append(kept, t)
		}
	}
	m.items = kept
	return sortExpired(out)
}

func sameMultiset(t *testing.T, name string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d\n got %v\nwant %v", name, len(got), len(want), got, want)
	}
	key := func(tp tuple.Tuple) string { return tp.String() }
	count := map[string]int{}
	for _, tp := range want {
		count[key(tp)]++
	}
	for _, tp := range got {
		count[key(tp)]--
		if count[key(tp)] < 0 {
			t.Fatalf("%s: unexpected tuple %v", name, tp)
		}
	}
}

// TestBuffersAgreeWithModel drives random insert/expire/remove traffic with
// window-bounded expirations through every implementation and checks that the
// surviving multiset always matches the naive model. This is the core
// equivalence property: all four structures implement the same semantics and
// differ only in cost.
func TestBuffersAgreeWithModel(t *testing.T) {
	const horizon = 50
	for name, b := range allBuffers(horizon) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			model := &modelBuffer{}
			now := int64(0)
			for step := 0; step < 3000; step++ {
				switch op := r.Intn(10); {
				case op < 6: // insert
					ts := now
					exp := now + 1 + int64(r.Intn(horizon))
					v := int64(r.Intn(8))
					tp := mk(ts, exp, v)
					b.Insert(tp)
					model.insert(tp)
				case op < 9: // advance time and expire
					now += int64(r.Intn(5))
					got := b.ExpireUpTo(now)
					want := model.expireUpTo(now)
					sameMultiset(t, name+"/expired", got, want)
				default: // negative-tuple removal of a random value
					tp := mk(0, 0, int64(r.Intn(8)))
					got := b.Remove(tp)
					// Model: remove one matching tuple if any exists.
					found := -1
					for i, mt := range model.items {
						if mt.SameVals(tp) {
							found = i
							break
						}
					}
					if got != (found >= 0) {
						t.Fatalf("Remove mismatch at step %d: got %v", step, got)
					}
					if found >= 0 {
						// The implementations may remove a different matching
						// tuple than items[found]; align the model by removing
						// the one actually gone.
						inBuf := map[string]int{}
						b.Scan(func(bt tuple.Tuple) bool { inBuf[bt.String()]++; return true })
						removedIdx := -1
						for i, mt := range model.items {
							if mt.SameVals(tp) {
								k := mt.String()
								cnt := 0
								for _, mt2 := range model.items {
									if mt2.String() == k {
										cnt++
									}
								}
								if inBuf[k] < cnt {
									removedIdx = i
									break
								}
							}
						}
						if removedIdx < 0 {
							removedIdx = found
						}
						model.items = append(model.items[:removedIdx], model.items[removedIdx+1:]...)
					}
				}
				if b.Len() != len(model.items) {
					t.Fatalf("step %d: Len %d != model %d", step, b.Len(), len(model.items))
				}
			}
			// Drain fully and compare.
			got := b.ExpireUpTo(now + horizon + 1)
			want := model.expireUpTo(now + horizon + 1)
			sameMultiset(t, name+"/drain", got, want)
			if b.Len() != 0 {
				t.Errorf("buffer not empty after drain: %d", b.Len())
			}
		})
	}
}

func TestIndexedFIFOProbe(t *testing.T) {
	b := keyedFIFO()
	b.Insert(mk(1, 101, 10))
	b.Insert(mk(2, 102, 10))
	b.Insert(mk(3, 103, 20))
	k := mk(0, 0, 10).Key([]int{0})
	if hits := b.(ProbeAppender).ProbeAppend(k, 0, nil); fmt.Sprint(render(hits)) != fmt.Sprint(render([]tuple.Tuple{mk(1, 101, 10), mk(2, 102, 10)})) {
		t.Errorf("probe hits = %v", hits)
	}
	// A retraction takes its tuple out of Len, Scan and probes at once, and
	// expiration does not return it again.
	if !b.Remove(mk(0, 101, 10)) {
		t.Fatal("Remove failed")
	}
	if hits := b.(ProbeAppender).ProbeAppend(k, 0, nil); len(hits) != 1 || hits[0].TS != 2 {
		t.Errorf("probe after Remove = %v", hits)
	}
	if b.Len() != 2 || len(snapshot(b)) != 2 {
		t.Errorf("Len = %d, Scan found %d", b.Len(), len(snapshot(b)))
	}
	exp := b.ExpireUpTo(103)
	if len(exp) != 2 {
		t.Fatalf("expired %d, want 2 (the retracted tuple not again): %v", len(exp), exp)
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
}

// TestIndexedFIFOUnsortedFallback feeds the indexed FIFO expirations out of
// insertion order (a union of windows of different sizes): expiration still
// returns exactly the due tuples in (Exp, TS) order, touching no more than
// what it expires plus one, and Scan lists the survivors in that order too.
func TestIndexedFIFOUnsortedFallback(t *testing.T) {
	b := keyedFIFO()
	b.Insert(mk(1, 200, 1))
	b.Insert(mk(2, 150, 2)) // violates FIFO exp order
	b.Insert(mk(3, 300, 3))
	exp := b.ExpireUpTo(150)
	if len(exp) != 1 || !exp[0].Vals[0].Identical(tuple.Int(2)) {
		t.Fatalf("out-of-order expiration wrong: %v", exp)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
	model := &modelBuffer{items: snapshot(b)}
	for i := int64(0); i < 500; i++ {
		tp := mk(10+i, 400+i/2-(i%2)*5, i%7)
		b.Insert(tp)
		model.insert(tp)
		now := 160 + i/2
		before := b.Touched()
		got := b.ExpireUpTo(now)
		if want := model.expireUpTo(now); fmt.Sprint(render(got)) != fmt.Sprint(render(want)) {
			t.Fatalf("ExpireUpTo(%d) = %v, want %v", now, got, want)
		}
		if n := b.Touched() - before; n > int64(len(got))+1 {
			t.Fatalf("ExpireUpTo(%d) expired %d and touched %d tuples", now, len(got), n)
		}
		if b.Len() != len(model.items) {
			t.Fatalf("Len = %d, want %d", b.Len(), len(model.items))
		}
	}
	if got := inScanOrder(b); !sort.SliceIsSorted(got, func(i, j int) bool { return expiresBefore(got[i], got[j]) }) {
		t.Errorf("Scan order is not expiration order: %v", got)
	}
}

// TestBuffersRebind: every kind's Each visits each stored tuple exactly
// once, removed ones excluded, counts no visit, and afterwards stores the
// slice fn put in that tuple's place, found by probes and retractions as
// before.
func TestBuffersRebind(t *testing.T) {
	for name, b := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			for i := int64(1); i <= 6; i++ {
				b.Insert(mk(i, 100+i, i%3))
			}
			if !b.Remove(mk(0, 102, 2)) {
				t.Fatal("Remove found nothing")
			}
			shared := map[int64][]tuple.Value{}
			touched, visits := b.Touched(), 0
			b.Each(func(tp *tuple.Tuple) bool {
				visits++
				v := tp.Vals[0].I
				if shared[v] == nil {
					shared[v] = []tuple.Value{tuple.Int(v)}
				}
				tp.Vals = shared[v]
				return true
			})
			if visits != 5 || b.Touched() != touched {
				t.Fatalf("%d visits and %d touches; want 5 and none", visits, b.Touched()-touched)
			}
			for _, tp := range snapshot(b) {
				if &tp.Vals[0] != &shared[tp.Vals[0].I][0] {
					t.Fatalf("%v keeps its own values", tp)
				}
			}
			if !b.Remove(mk(0, 105, 2)) || b.Len() != 4 {
				t.Fatalf("after rebinding a retraction misses: Len %d", b.Len())
			}
		})
	}
}

// TestReadsCountNoVisit: Each visits what Scan visits, in Scan's order, and
// LookupAppend finds what a probe from the beginning of time finds, yet
// neither moves Touched — a result view's reads must not change the ledger
// its checkpoint carries.
func TestReadsCountNoVisit(t *testing.T) {
	for name, b := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			for i := int64(1); i <= 6; i++ {
				b.Insert(mk(i, 100+i, i%3))
			}
			before := b.Touched()
			var each []tuple.Tuple
			b.Each(func(t *tuple.Tuple) bool { each = append(each, *t); return true })
			var got []tuple.Tuple
			var k tuple.Key
			if r, ok := b.(KeyReader); ok {
				k = mk(0, 0, 1).Key([]int{0})
				got = r.LookupAppend(k, nil)
			}
			if b.Touched() != before {
				t.Fatalf("reads moved Touched from %d to %d", before, b.Touched())
			}
			var scan []tuple.Tuple
			b.Scan(func(t tuple.Tuple) bool { scan = append(scan, t); return true })
			if fmt.Sprint(each) != fmt.Sprint(scan) {
				t.Errorf("Each visited %v, Scan %v", each, scan)
			}
			if p, ok := b.(ProbeAppender); ok {
				if want := p.ProbeAppend(k, -1, nil); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("LookupAppend found %v, ProbeAppend %v", got, want)
				}
			}
		})
	}
}
