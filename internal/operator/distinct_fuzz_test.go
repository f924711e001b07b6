package operator

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// deltaFuzzValues are the projected values a δ fuzz schedule draws from:
// key-equal values that differ bit for bit (1 and 1.0, +0 and −0 and 0, two
// NaN payloads) beside ordinary ones.
var deltaFuzzValues = []tuple.Value{
	tuple.Int(1), tuple.Float(1),
	tuple.Float(0), tuple.Float(math.Copysign(0, -1)), tuple.Int(0),
	tuple.Float(math.Float64frombits(0x7ff8000000000001)), tuple.Float(math.Float64frombits(0x7ff8000000000002)),
	tuple.Int(2), tuple.String_("x"),
}

// deltaFuzzHorizon bounds a fuzzed arrival's lifetime.
const deltaFuzzHorizon = 12

// FuzzDistinctDelta drives δ behind a borrowing projection and the same δ
// behind a copying one through a decoded schedule, pairs of bytes (op, arg):
//
//	op 0–4  an arrival at the current time: value arg % 9, lifetime
//	        1 + arg/9 % 12. Arrivals at one time form one run.
//	op 5    time moves by arg % 3 (0: the run so far is delivered and the
//	        next one starts at the same time).
//	op 6    time jumps by 1 + arg % 20 and every operator advances.
//	op 7    the first one cuts: each operator is checkpointed and restored.
//
// Each delivered run's input arrays are overwritten afterwards, so a δ that
// kept a borrowed slice would emit the overwrite later. Both δs must emit
// the same tuples bit for bit and write the same checkpoint bytes, and
// after every step their answer must be the literature Distinct's, bit for
// bit.
func FuzzDistinctDelta(f *testing.F) {
	f.Add([]byte{0, 0, 1, 19, 5, 1, 2, 37, 5, 2, 6, 3, 0, 1})
	f.Add([]byte{0, 2, 3, 21, 4, 3, 5, 1, 7, 0, 0, 30, 6, 4, 1, 6, 6, 9})
	f.Add([]byte{0, 5, 1, 42, 2, 60, 5, 1, 7, 0, 3, 51, 6, 2, 0, 7, 5, 2, 6, 12})
	f.Add([]byte{0, 1, 0, 99, 1, 10, 5, 1, 0, 18, 7, 1, 5, 1, 6, 0, 0, 3, 6, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			return
		}
		runDeltaSchedule(t, data)
	})
}

// deltaRig is the operators one schedule drives.
type deltaRig struct {
	borrowing, copying *Project
	viaBorrow, viaCopy *DistinctDelta
	lit                *Distinct
}

// fuzzProjections returns the two projections a schedule's runs pass
// through: one borrows its input's values, the other copies them.
func fuzzProjections(t *testing.T) (borrowing, copying *Project) {
	in := tuple.MustSchema(tuple.Column{Name: "v", Kind: tuple.KindFloat}, tuple.Column{Name: "id", Kind: tuple.KindInt})
	b, err := NewProject(in, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewProject(in, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !b.SetBorrow(true) {
		t.Fatal("a one-column projection refused to borrow")
	}
	return b, c
}

func newDeltaRig(t *testing.T) *deltaRig {
	b, c := fuzzProjections(t)
	r := &deltaRig{borrowing: b, copying: c}
	r.reset()
	return r
}

// reset gives the rig fresh stateful operators.
func (r *deltaRig) reset() {
	s := r.copying.Schema()
	r.viaBorrow = NewDistinctDelta(s, deltaFuzzHorizon, 3)
	r.viaCopy = NewDistinctDelta(s, deltaFuzzHorizon, 3)
	r.lit = NewDistinct(DistinctConfig{Schema: s, InputBuf: statebuf.Config{Kind: statebuf.KindList},
		RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: deltaFuzzHorizon}, TimeExpiry: true})
}

func runDeltaSchedule(t *testing.T, data []byte) {
	r := newDeltaRig(t)
	var (
		now, id                        int64
		run                            []tuple.Tuple
		cut                            bool
		trace                          []deltaStep
		live                           [2][]tuple.Tuple // viaBorrow's and the literature's live output
		projB, projC, outB, outC, outL Emit
		got, want                      []answerRow
	)
	fail := func(format string, args ...any) {
		t.Helper()
		var b strings.Builder
		for _, st := range trace {
			fmt.Fprintln(&b, st)
		}
		t.Fatalf("%s%s", b.String(), fmt.Sprintf(format, args...))
	}
	same := func(what string, got, want []tuple.Tuple) {
		t.Helper()
		if !slices.EqualFunc(got, want, sameBits) {
			fail("%s: behind the borrowing projection δ emitted %v, behind the copying one %v", what, got, want)
		}
	}
	// keep adds what δ and the literature Distinct emitted to their answers.
	keep := func(delta, lit []tuple.Tuple) {
		for i, out := range [][]tuple.Tuple{delta, lit} {
			for _, tp := range out {
				if tp.Neg {
					fail("a negative tuple %v", tp)
				}
			}
			live[i] = append(live[i], out...)
		}
	}
	deliver := func() {
		if len(run) == 0 {
			return
		}
		for _, o := range []*Emit{&projB, &projC, &outB, &outC, &outL} {
			o.Reset()
		}
		step := func(err error) {
			t.Helper()
			if err != nil {
				fail("%v", err)
			}
		}
		step(r.borrowing.ProcessBatch(0, run, now, &projB))
		step(r.viaBorrow.ProcessBatch(0, projB.Tuples(), now, &outB))
		step(r.copying.ProcessBatch(0, run, now, &projC))
		step(r.viaCopy.ProcessBatch(0, projC.Tuples(), now, &outC))
		step(r.lit.ProcessBatch(0, projC.Tuples(), now, &outL))
		same(fmt.Sprintf("run at %d", now), outB.Tuples(), outC.Tuples())
		keep(outB.Tuples(), outL.Tuples())
		for _, tp := range run {
			tp.Vals[0], tp.Vals[1] = tuple.String_("overwritten"), tuple.Int(-1)
		}
		run = run[:0]
	}
	advance := func() {
		b, err := r.viaBorrow.Advance(now)
		if err != nil {
			fail("%v", err)
		}
		keep(b, nil)
		c, err := r.viaCopy.Advance(now)
		if err != nil {
			fail("%v", err)
		}
		same(fmt.Sprintf("advance to %d", now), b, c)
		l, err := r.lit.Advance(now)
		if err != nil {
			fail("%v", err)
		}
		keep(nil, l)
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch {
		case op <= 4:
			v := deltaFuzzValues[int(arg)%len(deltaFuzzValues)]
			life := 1 + int64(arg)/int64(len(deltaFuzzValues))%deltaFuzzHorizon
			id++
			tp := tuple.Tuple{TS: now, Exp: now + life, Vals: []tuple.Value{v, tuple.Int(id)}}
			run = append(run, tp)
			tp.Vals = slices.Clone(tp.Vals) // deliver overwrites the run's arrays
			trace = append(trace, deltaStep{"arrival", tp})
			continue
		case op == 5:
			deliver()
			now += int64(arg % 3)
		case op == 6:
			deliver()
			now += 1 + int64(arg%20)
			trace = append(trace, deltaStep{"advance", tuple.Tuple{TS: now}})
			advance()
		case !cut:
			deliver()
			cut = true
			trace = append(trace, deltaStep{"checkpoint and restore", tuple.Tuple{TS: now}})
			r.cut(fail)
		default:
			deliver()
		}
		for i := range live {
			live[i] = slices.DeleteFunc(live[i], func(tp tuple.Tuple) bool { return tp.Expired(now) })
		}
		got, want = deltaAnswer(live[0], got), deltaAnswer(live[1], want)
		if !slices.EqualFunc(got, want, answerRow.same) {
			fail("at %d δ answers %v, the literature Distinct %v", now, got, want)
		}
	}
}

// cut checkpoints every stateful operator and restores it into a fresh one.
// Both δs must write the same bytes, and a restored δ must write them again.
func (r *deltaRig) cut(fail func(string, ...any)) {
	save := func(s checkpoint.Snapshotter) []byte {
		var buf bytes.Buffer
		if err := s.SaveState(checkpoint.NewEncoder(&buf)); err != nil {
			fail("save: %v", err)
		}
		return buf.Bytes()
	}
	b, c, l := save(r.viaBorrow), save(r.viaCopy), save(r.lit)
	if !bytes.Equal(b, c) {
		fail("the two δs checkpoint differently:\n%x\n%x", b, c)
	}
	r.reset()
	for _, x := range []struct {
		s     checkpoint.Snapshotter
		bytes []byte
	}{{r.viaBorrow, b}, {r.viaCopy, c}, {r.lit, l}} {
		if err := x.s.LoadState(checkpoint.NewDecoder(bytes.NewReader(x.bytes))); err != nil {
			fail("restore: %v", err)
		}
	}
	if again := save(r.viaBorrow); !bytes.Equal(again, b) {
		fail("a restored δ checkpoints differently:\n%x\n%x", again, b)
	}
}

// sameBits reports whether two tuples are equal bit for bit.
func sameBits(a, b tuple.Tuple) bool {
	return a.TS == b.TS && a.Exp == b.Exp && a.Neg == b.Neg && slices.EqualFunc(a.Vals, b.Vals, tuple.Value.Identical)
}

// deltaStep is one step of a schedule, kept to report a failure: an
// arrival, or an event at the time in tp.TS.
type deltaStep struct {
	what string
	tp   tuple.Tuple
}

func (s deltaStep) String() string {
	switch s.what {
	case "arrival":
		return fmt.Sprintf("t=%d +%v", s.tp.TS, s.tp)
	case "retraction":
		return fmt.Sprintf("t=%d %v", s.tp.TS, s.tp)
	}
	return fmt.Sprintf("t=%d %s", s.tp.TS, s.what)
}

// answerRow is one row of a distinct answer: a value's key, its bits and
// its expiration.
type answerRow struct {
	key tuple.Key
	val tuple.Value
	exp int64
}

func (a answerRow) same(b answerRow) bool {
	return a.key == b.key && a.val.Identical(b.val) && a.exp == b.exp
}

// deltaAnswer collects the answer of a distinct output stream from its
// emissions still live into rows, sorted.
func deltaAnswer(live []tuple.Tuple, rows []answerRow) []answerRow {
	rows = rows[:0]
	for _, tp := range live {
		rows = append(rows, answerRow{tp.Key(deltaKeyCols), tp.Vals[0], tp.Exp})
	}
	slices.SortFunc(rows, func(a, b answerRow) int {
		if c := a.key.Compare(b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.exp, b.exp)
	})
	return rows
}

var deltaKeyCols = []int{0}

// FuzzDistinct drives the literature Distinct through FuzzDistinctDelta's
// schedule in the two configurations the physical planner gives it outside
// UPA (literatureDistinct): NT, where a negative tuple retracts each arrival
// once time passes its expiration, and DIRECT, where arrivals expire. In
// each, one Distinct runs behind a borrowing projection and one behind a
// copying one, and every delivered run's input arrays, retractions'
// included, are overwritten afterwards. The two Distincts must emit the same
// tuples bit for bit and write the same checkpoint bytes; a restored one must
// write them again and store its duplicates with their representative's
// values; and after every step each must store exactly the tuples it was
// delivered and has not let go, bit for bit.
func FuzzDistinct(f *testing.F) {
	f.Add([]byte{0, 0, 1, 19, 5, 1, 2, 37, 5, 2, 6, 3, 0, 1})
	f.Add([]byte{0, 2, 3, 21, 4, 3, 5, 1, 7, 0, 0, 30, 6, 4, 1, 6, 6, 9})
	f.Add([]byte{0, 5, 1, 42, 2, 60, 5, 1, 7, 0, 3, 51, 6, 2, 0, 7, 5, 2, 6, 12})
	f.Add([]byte{0, 1, 0, 99, 1, 10, 5, 1, 0, 18, 7, 1, 5, 1, 6, 0, 0, 3, 6, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			return
		}
		for _, nt := range []bool{true, false} {
			runDistinctSchedule(t, data, nt)
		}
	})
}

// distinctRig is the operators one literature schedule drives.
type distinctRig struct {
	borrowing, copying *Project
	viaBorrow, viaCopy *Distinct
	nt                 bool
}

// literatureDistinct builds the literature Distinct as the physical planner
// configures it under NT (a hash-keyed input, no time expiry: retractions
// retire every tuple) or under DIRECT (lists, time expiry), for tuples that
// live at most horizon.
func literatureDistinct(s *tuple.Schema, nt bool, horizon int64) *Distinct {
	if nt {
		return NewDistinct(DistinctConfig{Schema: s, InputBuf: statebuf.Config{Kind: statebuf.KindHash},
			RepIdx: statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: horizon, SortedByExp: true}})
	}
	return NewDistinct(DistinctConfig{Schema: s, InputBuf: statebuf.Config{Kind: statebuf.KindList},
		RepIdx: statebuf.Config{Kind: statebuf.KindList}, TimeExpiry: true})
}

// strategyName names literatureDistinct's configuration.
func strategyName(nt bool) string {
	if nt {
		return "NT"
	}
	return "DIRECT"
}

// reset gives the rig fresh Distincts.
func (r *distinctRig) reset() {
	s := r.copying.Schema()
	r.viaBorrow = literatureDistinct(s, r.nt, deltaFuzzHorizon)
	r.viaCopy = literatureDistinct(s, r.nt, deltaFuzzHorizon)
}

func runDistinctSchedule(t *testing.T, data []byte, nt bool) {
	b, c := fuzzProjections(t)
	r := &distinctRig{borrowing: b, copying: c, nt: nt}
	r.reset()
	var (
		now, id                  int64
		run                      []tuple.Tuple
		cut                      bool
		trace                    []deltaStep
		pending                  []tuple.Tuple // NT: arrivals not yet retracted
		stored                   []tuple.Tuple // what each Distinct must store
		projB, projC, outB, outC Emit
	)
	fail := func(format string, args ...any) {
		t.Helper()
		var b strings.Builder
		fmt.Fprintln(&b, strategyName(nt))
		for _, st := range trace {
			fmt.Fprintln(&b, st)
		}
		t.Fatalf("%s%s", b.String(), fmt.Sprintf(format, args...))
	}
	same := func(what string, got, want []tuple.Tuple) {
		t.Helper()
		if !slices.EqualFunc(got, want, sameBits) {
			fail("%s: behind the borrowing projection Distinct emitted%s, behind the copying one%s", what, bits(got), bits(want))
		}
	}
	// deliver feeds the run to both Distincts, updates what they must
	// store, and overwrites the run's arrays.
	deliver := func() {
		if len(run) == 0 {
			return
		}
		for _, o := range []*Emit{&projB, &projC, &outB, &outC} {
			o.Reset()
		}
		step := func(err error) {
			t.Helper()
			if err != nil {
				fail("%v", err)
			}
		}
		step(r.borrowing.ProcessBatch(0, run, now, &projB))
		step(r.viaBorrow.ProcessBatch(0, projB.Tuples(), now, &outB))
		step(r.copying.ProcessBatch(0, run, now, &projC))
		step(r.viaCopy.ProcessBatch(0, projC.Tuples(), now, &outC))
		same(fmt.Sprintf("run at %d", now), outB.Tuples(), outC.Tuples())
		for _, tp := range projC.Tuples() {
			tp.Vals = slices.Clone(tp.Vals)
			if tp.Neg {
				at := storeVictim(stored, tp)
				if at < 0 {
					fail("retraction %v finds nothing stored", tp)
				}
				stored = slices.Delete(stored, at, at+1)
			} else {
				stored = append(stored, tp)
			}
		}
		for _, tp := range run {
			tp.Vals[0], tp.Vals[1] = tuple.String_("overwritten"), tuple.Int(-1)
		}
		run = run[:0]
	}
	// pass moves time on by dt: the pending run is delivered first, and
	// under NT the arrivals whose expiration time reaches form the next run,
	// as negative tuples in expiration order.
	pass := func(dt int64) {
		deliver()
		now += dt
		if !nt || dt == 0 {
			return
		}
		due := slices.DeleteFunc(slices.Clone(pending), func(tp tuple.Tuple) bool { return !tp.Expired(now) })
		pending = slices.DeleteFunc(pending, func(tp tuple.Tuple) bool { return tp.Expired(now) })
		slices.SortStableFunc(due, func(a, b tuple.Tuple) int { return cmp.Compare(a.Exp, b.Exp) })
		for _, tp := range due {
			neg := tp.Negative(now)
			trace = append(trace, deltaStep{"retraction", neg})
			neg.Vals = slices.Clone(neg.Vals) // deliver overwrites the run's arrays
			run = append(run, neg)
		}
		deliver()
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch {
		case op <= 4:
			v := deltaFuzzValues[int(arg)%len(deltaFuzzValues)]
			life := 1 + int64(arg)/int64(len(deltaFuzzValues))%deltaFuzzHorizon
			id++
			tp := tuple.Tuple{TS: now, Exp: now + life, Vals: []tuple.Value{v, tuple.Int(id)}}
			run = append(run, tp)
			tp.Vals = slices.Clone(tp.Vals) // deliver overwrites the run's arrays
			pending = append(pending, tp)
			trace = append(trace, deltaStep{"arrival", tp})
			continue
		case op == 5:
			pass(int64(arg % 3))
		case op == 6:
			pass(1 + int64(arg%20))
			trace = append(trace, deltaStep{"advance", tuple.Tuple{TS: now}})
			b, err := r.viaBorrow.Advance(now)
			if err != nil {
				fail("%v", err)
			}
			c, err := r.viaCopy.Advance(now)
			if err != nil {
				fail("%v", err)
			}
			same(fmt.Sprintf("advance to %d", now), b, c)
		case !cut:
			deliver()
			cut = true
			trace = append(trace, deltaStep{"checkpoint and restore", tuple.Tuple{TS: now}})
			r.cut(fail)
		default:
			deliver()
		}
		if !nt {
			// DIRECT trims its input at every clock advance (TrimEvery 1), and
			// every operator call has seen the current time.
			clock := r.viaCopy.clock
			stored = slices.DeleteFunc(stored, func(tp tuple.Tuple) bool { return tp.Expired(clock) })
		}
		for _, x := range []*Distinct{r.viaBorrow, r.viaCopy} {
			if got := storedInput(x); !sameBag(got, stored) {
				fail("at %d Distinct stores%s, want%s", now, bits(got), bits(stored))
			}
		}
	}
}

// storeVictim returns the index in stored of the tuple a retraction of neg
// takes, by the rule every state buffer follows (statebuf.Buffer.Remove):
// among tuples with neg's values, the first carrying its Exp, else the
// first of the oldest.
func storeVictim(stored []tuple.Tuple, neg tuple.Tuple) int {
	at := -1
	for i, tp := range stored {
		if !tp.SameVals(neg) {
			continue
		}
		if tp.Exp == neg.Exp {
			return i
		}
		if at < 0 || tp.TS < stored[at].TS {
			at = i
		}
	}
	return at
}

// storedInput returns the tuples d's input stores, read through Each, which
// counts no visit, so reading leaves d's checkpoint bytes as they were.
func storedInput(d *Distinct) []tuple.Tuple {
	var ts []tuple.Tuple
	d.input.Each(func(t *tuple.Tuple) bool { ts = append(ts, *t); return true })
	return ts
}

// bits renders tuples with each value's kind and payload, so a failure
// tells 1 from 1.0 and one NaN from another.
func bits(ts []tuple.Tuple) string {
	var b strings.Builder
	for _, tp := range ts {
		fmt.Fprintf(&b, " %v{", tp)
		for i, v := range tp.Vals {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v:%x%s", v.Kind(), v.I, v.S)
		}
		b.WriteByte('}')
	}
	return b.String()
}

// sameBag reports whether two tuple multisets are equal bit for bit.
func sameBag(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	b = slices.Clone(b)
	for _, x := range a {
		i := slices.IndexFunc(b, func(y tuple.Tuple) bool { return sameBits(x, y) })
		if i < 0 {
			return false
		}
		b = slices.Delete(b, i, i+1)
	}
	return true
}

// cut checkpoints both Distincts and restores each into a fresh one. Both
// must write the same bytes, and a restored one must write them again and
// store every duplicate with its representative's values when they are the
// same bits.
func (r *distinctRig) cut(fail func(string, ...any)) {
	save := func(s checkpoint.Snapshotter) []byte {
		var buf bytes.Buffer
		if err := s.SaveState(checkpoint.NewEncoder(&buf)); err != nil {
			fail("save: %v", err)
		}
		return buf.Bytes()
	}
	b, c := save(r.viaBorrow), save(r.viaCopy)
	if !bytes.Equal(b, c) {
		fail("the two Distincts checkpoint differently:\n%x\n%x", b, c)
	}
	r.reset()
	for _, x := range []struct {
		d     *Distinct
		bytes []byte
	}{{r.viaBorrow, b}, {r.viaCopy, c}} {
		if err := x.d.LoadState(checkpoint.NewDecoder(bytes.NewReader(x.bytes))); err != nil {
			fail("restore: %v", err)
		}
		for _, tp := range storedInput(x.d) {
			ref := x.d.reps.FindRow(tp, x.d.allCols)
			if ref == 0 {
				continue
			}
			rep := x.d.reps.At(ref).Vals
			if slices.EqualFunc(tp.Vals, rep, tuple.Value.Identical) && unsafe.SliceData(tp.Vals) != unsafe.SliceData(rep) {
				fail("restored %v does not share its representative's values", tp)
			}
		}
	}
	if again := save(r.viaBorrow); !bytes.Equal(again, b) {
		fail("a restored Distinct checkpoints differently:\n%x\n%x", again, b)
	}
}
