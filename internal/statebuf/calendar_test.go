package statebuf

import (
	"bytes"
	"errors"
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
// index, the DIRECT list, the NT hash and the indexed FIFO through one random
// schedule (calendarSchedule) and requires the same observable behaviour of
// all five, and each buffer's final cost counter pinned: an Expire with
// nothing due must charge exactly what the walk charged, so the counts below
// are the ones the calendar reported when every Expire walked.
func TestCalendarEquivalence(t *testing.T) {
	// Final Touched of keyed, unkeyed, list, hash and indexed FIFO, by byExp
	// and seed.
	pinned := map[bool][4][5]int64{
		false: {
			{93778, 103626, 74486, 55211, 56736},
			{77728, 85963, 61971, 45920, 47139},
			{68995, 76225, 55733, 40917, 41970},
			{71603, 78698, 57183, 42378, 44054},
		},
		true: {
			{94366, 104201, 74486, 55211, 56736},
			{78429, 86665, 61971, 45920, 47139},
			{69443, 76685, 55733, 40917, 41970},
			{72227, 79316, 57183, 42378, 44054},
		},
	}
	for _, byExp := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("byExp=%v/seed=%d", byExp, seed), func(t *testing.T) {
				const steps = 2500
				r := rand.New(rand.NewSource(seed))
				bufs := calendarSchedule(t, byExp, r.Intn, r.Intn(steps), steps)
				for i, b := range bufs {
					if got, want := b.Touched(), pinned[byExp][seed-1][i]; got != want {
						t.Errorf("%s: Touched %d, want %d", calendarKinds[i], got, want)
					}
				}
			})
		}
	}
}

// FuzzCalendar decodes a calendarSchedule from bytes — the first picks the
// variant, the second the save → load cut, each later one the next draw — and
// holds every buffer kind to the list's behaviour and the calendars to their
// next bound after every step.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 4, 10, 2, 12, 0, 0, 19, 5})
	f.Add([]byte{1, 7, 0, 0, 3, 0, 1, 5, 11, 1, 12, 0, 0, 0, 0, 2, 9, 12, 39, 5, 13, 2, 6})
	f.Add([]byte{1, 0, 4, 2, 0, 1, 0, 4, 2, 0, 1, 12, 0, 14, 3, 0, 2, 0, 12, 2, 1, 12, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		byExp, cut := data[0]%2 == 1, int(data[1])
		data = data[2:]
		steps := min(len(data), 512)
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v % n
		}
		calendarSchedule(t, byExp, pick, cut, steps)
	})
}

// calendarKinds names the buffers calendarSchedule drives, in its order.
var calendarKinds = []string{"keyed", "unkeyed", "list", "hash", "indexed-fifo"}

// calendarSchedule drives the keyed calendar, the calendar without an index,
// the DIRECT list, the NT hash and the indexed FIFO through steps operations
// drawn with pick, and requires the same observable behaviour of all five:
// ExpireUpTo returns the same sequence, Remove reports the same and takes the
// same victim, a probe finds the same bag, the survivors are the same bag.
// The two calendars must also agree on order — a keyed probe is a filtered
// Scan — a SaveState → LoadState round trip at step cut must change nothing,
// and after every step each calendar's next must bound the Exp of every
// reference in its circular partitions. It returns the buffers.
//
// TS is the insertion sequence number, so (Exp, TS) orders expirations
// totally and "oldest by TS" names one tuple; the schedule has value twins
// at equal and at different Exp, retractions that name an Exp no twin
// carries or a value not stored, past-due inserts, NeverExpires and
// beyond-horizon inserts (the overflow area), and clock jumps of more than a
// full calendar cycle.
func calendarSchedule(t *testing.T, byExp bool, pick func(n int) int, cut, steps int) []Buffer {
	t.Helper()
	const (
		parts   = 6
		horizon = 48
		keys    = 7
	)
	fresh := []func() Buffer{
		func() Buffer { return keyedCal(parts, horizon, byExp) },
		func() Buffer { return NewPartitioned(parts, horizon, byExp) },
		func() Buffer { return NewList() },
		func() Buffer { return NewHash([]int{0}) },
		keyedFIFO,
	}
	bufs := make([]Buffer, len(fresh))
	for i := range fresh {
		bufs[i] = fresh[i]()
	}
	now, seq := int64(0), int64(0)
	var exps []int64 // recent expirations, to mint twins at equal Exp
	for step := 0; step < steps; step++ {
		if step == cut {
			for i := range bufs {
				bufs[i] = reload(t, bufs[i], fresh[i]())
			}
		}
		switch op := pick(20); {
		case op < 9: // insert
			var exp int64
			switch c := pick(20); {
			case c == 0:
				exp = tuple.NeverExpires
			case c == 1:
				exp = now + horizon + 1 + int64(pick(3*horizon)) // beyond the horizon
			case c == 2:
				exp = now - int64(pick(horizon)) // past due
			case c < 8 && len(exps) > 0:
				exp = exps[pick(len(exps))]
			default:
				exp = now + 1 + int64(pick(horizon))
			}
			if exps = append(exps, exp); len(exps) > 8 {
				exps = exps[1:]
			}
			seq++
			tp := row(seq, exp, int64(pick(keys)), int64(pick(2)))
			for _, b := range bufs {
				b.Insert(tp)
			}
		case op < 13: // advance the clock and expire
			switch c := pick(40); {
			case c == 0:
				now += 3 * horizon // more than a full cycle
			default:
				now += int64(pick(6))
			}
			want := render(bufs[0].ExpireUpTo(now))
			for i, b := range bufs[1:] {
				if got := render(b.ExpireUpTo(now)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d ExpireUpTo(%d): %s\n  %v\nkeyed\n  %v", step, now, calendarKinds[i+1], got, want)
				}
			}
		case op < 17: // retract
			neg := row(0, now+int64(pick(horizon)), int64(pick(keys)), int64(pick(2)))
			if stored := snapshot(bufs[2]); len(stored) > 0 && pick(4) > 0 {
				neg = stored[pick(len(stored))]
				if pick(3) == 0 {
					neg.Exp = now - 1 - int64(pick(5)) // an Exp no stored tuple carries
				}
			}
			neg.TS, neg.Neg = now, true
			want := bufs[0].Remove(neg)
			for i, b := range bufs[1:] {
				if got := b.Remove(neg); got != want {
					t.Fatalf("step %d Remove(%v): %s says %v, keyed says %v", step, neg, calendarKinds[i+1], got, want)
				}
			}
		default: // probe
			k := row(0, 0, int64(pick(keys)), 0).Key([]int{0})
			want := render(probeKey(bufs[0], k, now))
			if got := render(scanKey(bufs[1], k, now)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d probe: keyed index\n  %v\nfiltered scan of the unkeyed calendar\n  %v", step, want, got)
			}
			for i, b := range bufs[2:] {
				if got := render(probeKey(b, k, now)); fmt.Sprint(sortedCopy(got)) != fmt.Sprint(sortedCopy(want)) {
					t.Fatalf("step %d probe: %s\n  %v\nkeyed\n  %v", step, calendarKinds[i+2], got, want)
				}
			}
		}
		want := render(snapshot(bufs[0]))
		for i, b := range bufs[1:] {
			if got := render(snapshot(b)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d survivors: %s\n  %v\nkeyed\n  %v", step, calendarKinds[i+1], got, want)
			}
			if b.Len() != len(want) {
				t.Fatalf("step %d: %s Len %d, %d stored", step, calendarKinds[i+1], b.Len(), len(want))
			}
		}
		if got, want := render(inScanOrder(bufs[0])), render(inScanOrder(bufs[1])); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d Scan order: keyed\n  %v\nunkeyed\n  %v", step, got, want)
		}
		for i, b := range bufs {
			if c := calendarOf(b); c != nil {
				if err := c.checkNext(); err != nil {
					t.Fatalf("step %d: %s: %v", step, calendarKinds[i], err)
				}
			}
		}
	}
	return bufs
}

// calendarOf returns the calendar a buffer files its entries in, or nil.
func calendarOf(b Buffer) *Calendar {
	switch b := b.(type) {
	case *PartitionedBuffer:
		return &b.cal
	case keyedCalendar:
		return &b.cal
	case indexedFIFO:
		return &b.cal
	}
	return nil
}

// checkNext reports a reference in the circular partitions that expires
// before the calendar's next bound.
func (c *Calendar) checkNext() error {
	for slot := range c.parts[:c.span] {
		for _, f := range c.parts[slot].live() {
			if f.exp < c.next {
				return fmt.Errorf("reference %d in partition %d expires at %d, before next %d", f.ref, slot, f.exp, c.next)
			}
		}
	}
	return nil
}

// inScanOrder lists the stored tuples as Scan visits them.
func inScanOrder(b Buffer) []tuple.Tuple {
	var out []tuple.Tuple
	b.Scan(func(t tuple.Tuple) bool { out = append(out, t); return true })
	return out
}

// goldenStep applies step i of the fixed schedule behind the section goldens
// in testdata/ and returns what the step observed.
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

// fifoSectionTuples decodes an indexed-FIFO section down to what this commit
// keeps of it: the tuples of its hash section, digest by digest. The flags,
// the queue (which at the parent also held stale entries) and the cost
// counter are left out, and so is the order within one digest: the parent
// listed a digest's tuples in insertion order (TS order here), this commit
// in expiration order.
func fifoSectionTuples(t *testing.T, section []byte) string {
	t.Helper()
	dec := checkpoint.NewDecoder(bytes.NewReader(section))
	dec.Varint()
	dec.Bool()
	dec.Tuples()
	dec.Varint()
	rows := dec.Tuples()
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	for i, j := 0, 0; i < len(rows); i = j {
		h := rows[i].KeyHash64([]int{0})
		for j = i + 1; j < len(rows) && rows[j].KeyHash64([]int{0}) == h; j++ {
		}
		run := rows[i:j]
		sort.Slice(run, func(a, b int) bool { return run[a].TS < run[b].TS })
	}
	return fmt.Sprint(render(rows))
}

// TestCalendarRestoresParentSection loads a checkpoint section of every keyed
// kind written by a parent commit — PartitionedBuffer sections by 7ac7748,
// before partitions were runs of slab references and before the index
// existed; hash and indexed-FIFO sections by 227f40a, before both moved onto
// the keyed store; the list section by 5c9fe3b, before the list moved onto
// the FIFO's paged deque — each after steps 0..299 of goldenStep, runs the
// rest of the schedule, and requires every step to observe what an
// uninterrupted run observes. At the cut this commit must write what the
// parent wrote: the same bytes for the hash and the list; the same cursor and
// tuples in the same order for
// the calendars, whose cost counter differs by design (Remove visits less);
// the same hash-section tuples for the indexed FIFO.
func TestCalendarRestoresParentSection(t *testing.T) {
	const cut, steps = 300, 600
	type parentSection struct {
		name, file string
		fresh      func() Buffer
		kept       func(t *testing.T, section []byte) string
	}
	var cases []parentSection
	for _, byExp := range []bool{false, true} {
		file := "testdata/partitioned_lazy.ckpt"
		if byExp {
			file = "testdata/partitioned_sorted.ckpt"
		}
		for _, keyed := range []bool{false, true} {
			cases = append(cases, parentSection{fmt.Sprintf("byExp=%v/keyed=%v", byExp, keyed), file, func() Buffer {
				if keyed {
					return keyedCal(8, 64, byExp)
				}
				return NewPartitioned(8, 64, byExp)
			}, sectionTuples})
		}
	}
	raw := func(_ *testing.T, section []byte) string { return fmt.Sprint(section) }
	cases = append(cases,
		parentSection{"hash", "testdata/hash.ckpt", func() Buffer { return NewHash([]int{0}) }, raw},
		parentSection{"indexed-fifo", "testdata/indexedfifo.ckpt", keyedFIFO, fifoSectionTuples},
		parentSection{"list", "testdata/list.ckpt", func() Buffer { return NewList() }, raw})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			section, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			// shadow only takes rr to the cut through the draws the parent's
			// run made there.
			whole, wr := c.fresh(), rand.New(rand.NewSource(5))
			shadow, rr := c.fresh(), rand.New(rand.NewSource(5))
			for i := 0; i < cut; i++ {
				goldenStep(whole, wr, i)
				goldenStep(shadow, rr, i)
			}
			var again bytes.Buffer
			if err := whole.SaveState(checkpoint.NewEncoder(&again)); err != nil {
				t.Fatal(err)
			}
			if got, want := c.kept(t, again.Bytes()), c.kept(t, section); got != want {
				t.Errorf("the section this commit writes at the cut\n  %s\nthe parent's\n  %s", got, want)
			}
			restored := c.fresh()
			if err := restored.LoadState(checkpoint.NewDecoder(bytes.NewReader(section))); err != nil {
				t.Fatal(err)
			}
			for i := cut; i < steps; i++ {
				if got, want := goldenStep(restored, rr, i), goldenStep(whole, wr, i); got != want {
					t.Fatalf("step %d: restored %s, uninterrupted %s", i, got, want)
				}
			}
			got, want := render(inScanOrder(restored)), render(inScanOrder(whole))
			if c.name == "hash" {
				// A reload re-inserts in digest order, which is the hash's
				// slot order from then on.
				got, want = sortedCopy(got), sortedCopy(want)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("final state: restored\n  %v\nuninterrupted\n  %v", got, want)
			}
		})
	}
}

// TestRestoreKeepsTieOrder fills each calendar kind with tuples that share
// (Exp, TS) on keys inserted against digest order, value twins among them
// and a retraction, and requires a save → load → save to write the same bytes
// and the restored buffer to scan and expire in the uninterrupted one's
// order. (The hash is left out: a reload resets its slot order, see
// HashBuffer.)
func TestRestoreKeepsTieOrder(t *testing.T) {
	keys := make([]int64, 16)
	for i := range keys {
		keys[i] = int64(i)
	}
	digest := func(k int64) uint64 { return row(0, 0, k, 0).KeyHash64([]int{0}) }
	sort.Slice(keys, func(i, j int) bool { return digest(keys[i]) > digest(keys[j]) })
	for _, kind := range []struct {
		name  string
		fresh func() Buffer
	}{
		{"indexed-fifo", keyedFIFO},
		{"keyed-sorted", func() Buffer { return keyedCal(4, 64, true) }},
		{"keyed-lazy", func() Buffer { return keyedCal(4, 64, false) }},
		{"unkeyed-sorted", func() Buffer { return NewPartitioned(4, 64, true) }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			whole := kind.fresh()
			for _, k := range keys {
				whole.Insert(row(7, 50, k, 0))
			}
			for _, k := range keys[:4] {
				whole.Insert(row(7, 50, k, 0)) // an identical twin
				whole.Insert(row(8, 50, k, 1))
			}
			whole.Remove(row(7, 50, keys[1], 0))
			var first, second bytes.Buffer
			if err := whole.SaveState(checkpoint.NewEncoder(&first)); err != nil {
				t.Fatal(err)
			}
			restored := kind.fresh()
			if err := restored.LoadState(checkpoint.NewDecoder(bytes.NewReader(first.Bytes()))); err != nil {
				t.Fatal(err)
			}
			if err := restored.SaveState(checkpoint.NewEncoder(&second)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("save → load → save wrote different bytes")
			}
			got := fmt.Sprint(render(inScanOrder(restored)), render(restored.ExpireUpTo(50)))
			if want := fmt.Sprint(render(inScanOrder(whole)), render(whole.ExpireUpTo(50))); got != want {
				t.Fatalf("Scan order, then ExpireUpTo: restored\n  %s\nuninterrupted\n  %s", got, want)
			}
		})
	}
}

// TestIndexedFIFOLoadsOlderQueue loads indexed-FIFO sections in the layout
// written before the keyed store, whose queue was in arrival order and kept
// stale entries, and requires the hash section to decide what is stored and
// the queue in what order.
func TestIndexedFIFOLoadsOlderQueue(t *testing.T) {
	a, b := row(7, 50, 1, 0), row(7, 50, 2, 0)
	early := row(9, 40, 3, 0) // arrived after a and b, expires before them
	section := func(queue, stored []tuple.Tuple) *checkpoint.Decoder {
		var buf bytes.Buffer
		enc := checkpoint.NewEncoder(&buf)
		enc.Varint(50)
		enc.Bool(true)
		enc.Tuples(queue)
		enc.Varint(0)
		enc.Tuples(stored)
		return checkpoint.NewDecoder(&buf)
	}
	// The first a went stale (a retraction takes the first of equal twins),
	// so the survivor is the one queued after b.
	fifo := keyedFIFO()
	if err := fifo.LoadState(section([]tuple.Tuple{a, b, a, early, row(5, 50, 1, 0)}, []tuple.Tuple{early, a, b})); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(render(inScanOrder(fifo))), fmt.Sprint(render([]tuple.Tuple{early, b, a})); got != want {
		t.Fatalf("restored\n  %s\nwant\n  %s", got, want)
	}
	err := keyedFIFO().LoadState(section([]tuple.Tuple{a}, []tuple.Tuple{a, b}))
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("a queue without a stored tuple loaded with error %v, want checkpoint.ErrCorrupt", err)
	}
	// A row without the key columns, queued or stored, is refused before it
	// is hashed.
	keyless := tuple.Tuple{TS: 7, Exp: 50}
	for _, sec := range [][2][]tuple.Tuple{{{keyless}, {a}}, {{a}, {keyless}}} {
		if err := keyedFIFO().LoadState(section(sec[0], sec[1])); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("a keyless row loaded with error %v, want checkpoint.ErrCorrupt", err)
		}
	}
}

// TestCalendarTouchesOnlyWhatItMust states the asymptote as counts: with
// 10 000 tuples stored over 1 000 keys, a keyed probe or retraction visits no
// more than the key's bucket and an expiration pass no more than what it
// expires plus one, where the scans they replace visited all 10 000, up to
// 10 000, and the boundary partition. The probe and retraction bounds hold
// for every keyed kind, the expiration bound for the two calendars (the NT
// hash expires by a full walk, which the NT strategy never asks for).
func TestCalendarTouchesOnlyWhatItMust(t *testing.T) {
	const (
		stored  = 10000
		keys    = 1000
		bucket  = stored / keys
		horizon = 10000
	)
	for _, kind := range []struct {
		name    string
		fresh   func() Buffer
		expires bool
	}{
		{"keyed-calendar", func() Buffer { return keyedCal(10, horizon, true) }, true},
		{"indexed-fifo", keyedFIFO, true},
		{"hash", func() Buffer { return NewHash([]int{0}) }, false},
	} {
		t.Run(kind.name, func(t *testing.T) {
			b := kind.fresh()
			for i := int64(0); i < stored; i++ {
				b.Insert(row(i, i+horizon, i%keys, i))
				if i%100 == 0 && kind.expires {
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
				if n := touched(func() { got = b.(ProbeAppender).ProbeAppend(k, 0, nil) }); n > bucket || len(got) != bucket {
					t.Errorf("ProbeAppend(key %d) found %d of %d and touched %d tuples, want at most %d", key, len(got), bucket, n, bucket)
				}
			}
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
			for now := int64(horizon); now < horizon+50 && kind.expires; now += 5 {
				var expired int
				if n := touched(func() { expired = len(b.ExpireUpTo(now)) }); expired == 0 || n > int64(expired)+1 {
					t.Errorf("ExpireUpTo(%d) expired %d and touched %d tuples, want at most %d", now, expired, n, expired+1)
				}
			}
		})
	}
}

// TestExpiryOrderIsReproducible builds the same buffer of every kind twenty
// times over — value twins with equal (Exp, TS), retractions among them — and
// requires one ExpireUpTo sequence and one Scan order from all twenty:
// sortExpired keeps equal (Exp, TS) in the order a buffer hands them over, so
// replacement emissions are reproducible only if that order is.
func TestExpiryOrderIsReproducible(t *testing.T) {
	build := func(b Buffer) string {
		for i := int64(0); i < 24; i++ {
			b.Insert(row(7, 50, i%5, i))
		}
		for i := int64(0); i < 24; i += 6 {
			b.Remove(row(7, 50, i%5, i))
		}
		for i := int64(0); i < 8; i++ {
			b.Insert(row(8, 50, i%3, 100+i))
		}
		scan := render(inScanOrder(b))
		return fmt.Sprint(scan, render(b.ExpireUpTo(50)))
	}
	for name := range allBuffers(100) {
		t.Run(name, func(t *testing.T) {
			want := build(allBuffers(100)[name])
			for run := 1; run < 20; run++ {
				if got := build(allBuffers(100)[name]); got != want {
					t.Fatalf("build %d: Scan order, then ExpireUpTo\n  %s\nbuild 0\n  %s", run, got, want)
				}
			}
		})
	}
}

// TestCalendarFiresReferences pins the Calendar contract negation and
// intersection rely on, for the eager calendar and the DIRECT list: Expire
// hands back exactly the references due, in (Exp, TS) order whatever the
// insertion order — stale ones included, for the owner to release — and a
// reference parked beyond the horizon comes back once it is due. Save then
// Load, resolving each tuple to a reference of the owner's choosing, files
// the same references in the same places.
func TestCalendarFiresReferences(t *testing.T) {
	for name, fresh := range map[string]func(at func(int32) (*tuple.Tuple, bool)) *Calendar{
		"eager": func(at func(int32) (*tuple.Tuple, bool)) *Calendar { return NewCalendar(4, 40, at) },
		"list":  NewListCalendar,
	} {
		t.Run(name, func(t *testing.T) {
			var ents []tuple.Tuple // entry i+1
			stale := map[int32]bool{}
			at := func(ref int32) (*tuple.Tuple, bool) { return &ents[ref-1], !stale[ref] }
			c := fresh(at)
			for i, exp := range []int64{30, 12, 25, 12, 90, 7, 30} {
				ents = append(ents, row(int64(i/2), exp, int64(i), 0))
				c.Insert(int32(i+1), &ents[i])
			}
			stale[3] = true // retracted: it still fires, at 25
			fires := func(c *Calendar, now int64) []int32 { return append([]int32(nil), c.Expire(now)...) }

			var saved bytes.Buffer
			if err := c.Save(checkpoint.NewEncoder(&saved)); err != nil {
				t.Fatal(err)
			}
			// The reload resolves by payload position, as an owner matching
			// tuples to its entries would.
			reload := fresh(at)
			err := reload.Load(checkpoint.NewDecoder(&saved), func(tp tuple.Tuple) int32 { return int32(tp.Vals[0].I) + 1 })
			if err != nil {
				t.Fatal(err)
			}

			for _, cal := range []*Calendar{c, reload} {
				if got := fmt.Sprint(fires(cal, 12)); got != "[6 2 4]" {
					t.Errorf("Expire(12) = %s, want [6 2 4]: (Exp, TS) order", got)
				}
				if got := fmt.Sprint(fires(cal, 30)); got != "[3 1 7]" {
					t.Errorf("Expire(30) = %s, want [3 1 7], the stale 3 included", got)
				}
				if cal.Len() != 1 {
					t.Errorf("Len = %d, want the one reference beyond the horizon", cal.Len())
				}
				if got := fmt.Sprint(fires(cal, 89)); got != "[]" {
					t.Errorf("Expire(89) = %s, want nothing", got)
				}
				if got := fmt.Sprint(fires(cal, 90)); got != "[5]" {
					t.Errorf("Expire(90) = %s, want [5] from beyond the horizon", got)
				}
			}
		})
	}
}
