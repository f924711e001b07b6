package statebuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// keyedCal builds the calendar the planner builds for probed or retracted WK
// state: indexed on column 0.
func keyedCal(parts int, horizon int64, byExp bool) Buffer {
	return New(Config{Kind: KindPartitioned, KeyCols: []int{0}, Partitions: parts, Horizon: horizon, SortedByExp: byExp})
}

func row(ts, exp, key, payload int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{tuple.Int(key), tuple.Int(payload)}}
}

func render(ts []tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func sortedCopy(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}

// scanKey is what a join's scan fallback computes: the live tuples under k in
// Scan order.
func scanKey(b Buffer, k tuple.Key, now int64) []tuple.Tuple {
	var out []tuple.Tuple
	b.Scan(func(t tuple.Tuple) bool {
		if !t.Expired(now) && t.KeyMatches([]int{0}, k) {
			out = append(out, t)
		}
		return true
	})
	return out
}

func probeKey(b Buffer, k tuple.Key, now int64) []tuple.Tuple {
	if pa, ok := b.(ProbeAppender); ok {
		return pa.ProbeAppend(k, now, nil)
	}
	return scanKey(b, k, now)
}

// reload pushes b through SaveState and LoadState into a fresh buffer of the
// same configuration.
func reload(t *testing.T, b Buffer, fresh Buffer) Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := b.(checkpoint.Snapshotter).SaveState(checkpoint.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := fresh.(checkpoint.Snapshotter).LoadState(checkpoint.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestCalendarEquivalence drives the keyed calendar, the calendar without an
// index, the DIRECT list and the NT hash through one random schedule and
// requires the same observable behaviour of all four: ExpireUpTo returns the
// same sequence, Remove reports the same and takes the same victim, a probe
// finds the same bag, the survivors are the same bag. The two calendars must
// also agree on order — a keyed probe is a filtered Scan — and a SaveState →
// LoadState round trip at a random step must change nothing.
//
// TS is the insertion sequence number, so (Exp, TS) orders expirations
// totally and "oldest by TS" names one tuple; the schedule has value twins
// at equal and at different Exp, retractions that name an Exp no twin
// carries or a value not stored, past-due inserts, NeverExpires and
// beyond-horizon inserts (the overflow area), and clock jumps of more than a
// full calendar cycle.
func TestCalendarEquivalence(t *testing.T) {
	const (
		parts   = 6
		horizon = 48
		keys    = 7
		steps   = 2500
	)
	for _, byExp := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("byExp=%v/seed=%d", byExp, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				fresh := []func() Buffer{
					func() Buffer { return keyedCal(parts, horizon, byExp) },
					func() Buffer { return NewPartitioned(parts, horizon, byExp) },
					func() Buffer { return NewList() },
					func() Buffer { return NewHash([]int{0}) },
				}
				names := []string{"keyed", "unkeyed", "list", "hash"}
				bufs := make([]Buffer, len(fresh))
				for i := range fresh {
					bufs[i] = fresh[i]()
				}
				cut := r.Intn(steps)
				now, seq := int64(0), int64(0)
				var exps []int64 // recent expirations, to mint twins at equal Exp
				for step := 0; step < steps; step++ {
					if step == cut {
						for i := range bufs {
							bufs[i] = reload(t, bufs[i], fresh[i]())
						}
					}
					switch op := r.Intn(20); {
					case op < 9: // insert
						var exp int64
						switch c := r.Intn(20); {
						case c == 0:
							exp = tuple.NeverExpires
						case c == 1:
							exp = now + horizon + 1 + int64(r.Intn(3*horizon)) // beyond the horizon
						case c == 2:
							exp = now - int64(r.Intn(horizon)) // past due
						case c < 8 && len(exps) > 0:
							exp = exps[r.Intn(len(exps))]
						default:
							exp = now + 1 + int64(r.Intn(horizon))
						}
						if exps = append(exps, exp); len(exps) > 8 {
							exps = exps[1:]
						}
						seq++
						tp := row(seq, exp, int64(r.Intn(keys)), int64(r.Intn(2)))
						for _, b := range bufs {
							b.Insert(tp)
						}
					case op < 13: // advance the clock and expire
						switch c := r.Intn(40); {
						case c == 0:
							now += 3 * horizon // more than a full cycle
						default:
							now += int64(r.Intn(6))
						}
						want := render(bufs[0].ExpireUpTo(now))
						for i, b := range bufs[1:] {
							if got := render(b.ExpireUpTo(now)); fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("step %d ExpireUpTo(%d): %s\n  %v\nkeyed\n  %v", step, now, names[i+1], got, want)
							}
						}
					case op < 17: // retract
						neg := row(0, now+int64(r.Intn(horizon)), int64(r.Intn(keys)), int64(r.Intn(2)))
						if stored := snapshot(bufs[2]); len(stored) > 0 && r.Intn(4) > 0 {
							neg = stored[r.Intn(len(stored))]
							if r.Intn(3) == 0 {
								neg.Exp = now - 1 - int64(r.Intn(5)) // an Exp no stored tuple carries
							}
						}
						neg.TS, neg.Neg = now, true
						want := bufs[0].Remove(neg)
						for i, b := range bufs[1:] {
							if got := b.Remove(neg); got != want {
								t.Fatalf("step %d Remove(%v): %s says %v, keyed says %v", step, neg, names[i+1], got, want)
							}
						}
					default: // probe
						k := row(0, 0, int64(r.Intn(keys)), 0).Key([]int{0})
						want := render(probeKey(bufs[0], k, now))
						if got := render(scanKey(bufs[1], k, now)); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d probe: keyed index\n  %v\nfiltered scan of the unkeyed calendar\n  %v", step, want, got)
						}
						for i, b := range bufs[2:] {
							if got := render(probeKey(b, k, now)); fmt.Sprint(sortedCopy(got)) != fmt.Sprint(sortedCopy(want)) {
								t.Fatalf("step %d probe: %s\n  %v\nkeyed\n  %v", step, names[i+2], got, want)
							}
						}
					}
					want := render(snapshot(bufs[0]))
					for i, b := range bufs[1:] {
						if got := render(snapshot(b)); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d survivors: %s\n  %v\nkeyed\n  %v", step, names[i+1], got, want)
						}
						if b.Len() != len(want) {
							t.Fatalf("step %d: %s Len %d, %d stored", step, names[i+1], b.Len(), len(want))
						}
					}
					if got, want := render(inScanOrder(bufs[0])), render(inScanOrder(bufs[1])); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d Scan order: keyed\n  %v\nunkeyed\n  %v", step, got, want)
					}
				}
			})
		}
	}
}

// inScanOrder lists the stored tuples as Scan visits them.
func inScanOrder(b Buffer) []tuple.Tuple {
	var out []tuple.Tuple
	b.Scan(func(t tuple.Tuple) bool { out = append(out, t); return true })
	return out
}

// goldenStep applies step i of the fixed schedule behind
// testdata/partitioned_*.ckpt and returns what the step observed.
func goldenStep(b Buffer, r *rand.Rand, i int) string {
	now := int64(i / 2)
	switch c := r.Intn(12); {
	case c < 7:
		exp := now + 1 + int64(r.Intn(40))
		switch r.Intn(15) {
		case 0:
			exp = tuple.NeverExpires
		case 1:
			exp = now + 100 + int64(r.Intn(100))
		case 2:
			exp = now - int64(r.Intn(10))
		}
		b.Insert(row(int64(i), exp, int64(r.Intn(5)), int64(r.Intn(2))))
		return ""
	case c < 10:
		return fmt.Sprint(render(b.ExpireUpTo(now)))
	default:
		stored := snapshot(b)
		if len(stored) == 0 {
			return ""
		}
		// Retractions carry their tuple's Exp: for one that names no stored
		// Exp the parent took another twin than the rule all kinds now share.
		return fmt.Sprint(b.Remove(stored[r.Intn(len(stored))]))
	}
}

// sectionTuples decodes a PartitionedBuffer section down to its cursor and
// tuple sequence.
func sectionTuples(t *testing.T, section []byte) string {
	t.Helper()
	dec := checkpoint.NewDecoder(bytes.NewReader(section))
	lowBkt, _ := dec.Varint(), dec.Varint()
	rows := dec.Tuples()
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(lowBkt, render(rows))
}

// TestCalendarRestoresParentSection loads a PartitionedBuffer checkpoint
// section written at the parent commit (7ac7748, before partitions were runs
// of slab references and before the index existed; steps 0..299 of
// goldenStep, both variants) into a calendar with and without an index, runs
// the rest of the schedule, and requires every step to observe what an
// uninterrupted run observes.
func TestCalendarRestoresParentSection(t *testing.T) {
	const cut, steps = 300, 600
	for _, byExp := range []bool{false, true} {
		file := "testdata/partitioned_lazy.ckpt"
		if byExp {
			file = "testdata/partitioned_sorted.ckpt"
		}
		section, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, keyed := range []bool{false, true} {
			t.Run(fmt.Sprintf("byExp=%v/keyed=%v", byExp, keyed), func(t *testing.T) {
				fresh := func() Buffer {
					if keyed {
						return keyedCal(8, 64, byExp)
					}
					return NewPartitioned(8, 64, byExp)
				}
				// shadow only takes rr to the cut through the draws the parent's
				// run made there.
				whole, wr := fresh(), rand.New(rand.NewSource(5))
				shadow, rr := fresh(), rand.New(rand.NewSource(5))
				for i := 0; i < cut; i++ {
					goldenStep(whole, wr, i)
					goldenStep(shadow, rr, i)
				}
				var again bytes.Buffer
				if err := whole.(checkpoint.Snapshotter).SaveState(checkpoint.NewEncoder(&again)); err != nil {
					t.Fatal(err)
				}
				// Same cursor and the same tuples in the same order; the cost
				// counter between them differs by design (Remove visits less).
				if got, want := sectionTuples(t, again.Bytes()), sectionTuples(t, section); got != want {
					t.Errorf("the section this commit writes at the cut\n  %s\nthe parent's\n  %s", got, want)
				}
				restored := fresh()
				if err := restored.(checkpoint.Snapshotter).LoadState(checkpoint.NewDecoder(bytes.NewReader(section))); err != nil {
					t.Fatal(err)
				}
				for i := cut; i < steps; i++ {
					if got, want := goldenStep(restored, rr, i), goldenStep(whole, wr, i); got != want {
						t.Fatalf("step %d: restored %s, uninterrupted %s", i, got, want)
					}
				}
				if got, want := render(inScanOrder(restored)), render(inScanOrder(whole)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("final state: restored\n  %v\nuninterrupted\n  %v", got, want)
				}
			})
		}
	}
}

// TestCalendarTouchesOnlyWhatItMust states the asymptote as counts: with
// 10 000 tuples stored over 1 000 keys, a keyed probe or retraction visits no
// more than the key's bucket and an expiration pass no more than what it
// expires plus one, where the scans they replace visited all 10 000, up to
// 10 000, and the boundary partition.
func TestCalendarTouchesOnlyWhatItMust(t *testing.T) {
	const (
		stored  = 10000
		keys    = 1000
		bucket  = stored / keys
		horizon = 10000
	)
	b := keyedCal(10, horizon, true).(keyedCalendar)
	for i := int64(0); i < stored; i++ {
		b.Insert(row(i, i+horizon, i%keys, i))
		if i%100 == 0 {
			b.ExpireUpTo(i) // nothing is due; the calendar's horizon follows the clock
		}
	}
	touched := func(op func()) int64 {
		before := b.Touched()
		op()
		return b.Touched() - before
	}
	for _, key := range []int64{0, 1, 500, 999} {
		k := row(0, 0, key, 0).Key([]int{0})
		var got []tuple.Tuple
		if n := touched(func() { got = b.ProbeAppend(k, 0, nil) }); n > bucket || len(got) != bucket {
			t.Errorf("ProbeAppend(key %d) found %d of %d and touched %d tuples, want at most %d", key, len(got), bucket, n, bucket)
		}
	}
	// None of the retracted tuples is due in the passes below; one that was
	// would add a visit for its stale reference.
	for _, i := range []int64{777, 4321, 9999} {
		neg := row(0, i+horizon, i%keys, i)
		if n := touched(func() {
			if !b.Remove(neg) {
				t.Errorf("Remove(%v) found nothing", neg)
			}
		}); n > bucket {
			t.Errorf("Remove touched %d tuples, want at most %d", n, bucket)
		}
	}
	for now := int64(horizon); now < horizon+50; now += 5 {
		var expired int
		if n := touched(func() { expired = len(b.ExpireUpTo(now)) }); expired == 0 || n > int64(expired)+1 {
			t.Errorf("ExpireUpTo(%d) expired %d and touched %d tuples, want at most %d", now, expired, n, expired+1)
		}
	}
}
