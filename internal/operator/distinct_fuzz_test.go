package operator

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

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

func newDeltaRig(t *testing.T) *deltaRig {
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
	if s.what == "arrival" {
		return fmt.Sprintf("t=%d +%v", s.tp.TS, s.tp)
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
