package operator

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// FuzzQuotaCore drives negation and intersection through one schedule the
// fuzz bytes decode to, and after every event compares each operator's
// answer — its emissions folded into a bag, results leaving by their own Exp
// under time expiry — with a brute-force model: for negation, each value's
// youngest max(v1 − v2, 0) live W1 tuples in arrival order; for
// intersection, min(v1, v2) copies of each value. Both operators must also
// hold a slot for exactly the values that have a live tuple.
//
// The first byte picks calendars, the DIRECT baseline's lists, or NT (no
// time expiry; every tuple carries NeverExpires). Then each pair of bytes is
// one event on a domain of four values:
//
//	op 0, 2  a W1 (left) arrival; 1, 3 a W2 (right) arrival. The argument
//	         picks the value (arg%4) and the lifetime (1 + arg/4%16, where 16
//	         means NeverExpires), so Exp is out of arrival order and can lie
//	         beyond the horizon of 16.
//	op 4, 5  a retraction of a live W1 / W2 tuple (arg picks which); with
//	         arg >= 128, of one that has expired already, as an upstream
//	         negation emitting negative tuples on expiry sends them.
//	op 6     time moves by arg%4 (0: another event at the same timestamp).
//	op 7     time jumps by 20 + arg%8, past every window at once.
func FuzzQuotaCore(f *testing.F) {
	f.Add(equalTSTwinsSchedule())
	f.Add(lateRetractionSchedule())
	f.Add([]byte{0, 0, 5, 1, 5, 2, 9, 6, 1, 3, 17, 4, 0, 6, 3, 5, 1, 7, 0})
	f.Add([]byte{1, 0, 1, 0, 2, 1, 1, 1, 5, 6, 2, 4, 1, 6, 3, 6, 3})
	f.Add([]byte{2, 0, 1, 1, 1, 2, 1, 3, 1, 4, 0, 5, 1, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 400 {
			return
		}
		runQuotaSchedule(t, data)
	})
}

// equalTSTwinsSchedule is TestConformanceNegationEqualTSTwins on the fuzz
// domain: two W2 copies of value 1 live until t=10, then W1 tuples a, b and c
// of value 1 arrive at t=1, time moves to t=13, and one more W2 copy must
// retract a, the first to arrive.
func equalTSTwinsSchedule() []byte {
	w2, w1 := byte(1+4*9), byte(1+4*14) // value 1, lifetimes 10 and 15
	return []byte{0,
		1, w2, 1, w2, 6, 1,
		0, w1, 0, w1, 0, w1,
		6, 3, 6, 3, 6, 3, 6, 3,
		1, w2,
	}
}

// lateRetractionSchedule retracts tuples of both sides after they expired:
// each retraction must be absorbed without leaving its value a slot.
func lateRetractionSchedule() []byte {
	return []byte{0,
		0, 1, 1, 2, 0, 4*3 + 3, 6, 3, 6, 3,
		4, 128, 5, 128, 4, 128,
		7, 0,
		4, 128, 5, 128,
	}
}

func runQuotaSchedule(t *testing.T, data []byte) {
	mode := data[0] % 3
	timeExpiry := mode != 2
	lists := mode == 1
	neg, err := NewNegate(NegateConfig{
		Left: linkSchema(), Right: linkSchema(), LeftCols: []int{0}, RightCols: []int{0},
		Horizon: 16, Partitions: 3, ListCalendars: lists, NoTimeExpiry: !timeExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	isect, err := NewIntersect(IntersectConfig{
		Left: ipSchema1(), Right: ipSchema1(),
		Horizon: 16, Partitions: 3, ListCalendars: lists, NoTimeExpiry: !timeExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		now     int64
		id      int64
		live    [2][]tuple.Tuple // model: live link rows per side, in arrival order
		expired [2][]tuple.Tuple // rows that expired, not retracted yet
		negAns  = map[result]int{}
		isecAns = map[result]int{}
		outs    Emit
		trace   []string
	)
	fold := func(bag map[result]int, ts []tuple.Tuple) {
		for _, r := range ts {
			k := resultOf(r)
			if r.Neg {
				if bag[k] == 0 {
					t.Fatalf("%v\nretraction %v of a result not in the answer", trace, r)
				}
				if bag[k]--; bag[k] == 0 {
					delete(bag, k)
				}
			} else {
				bag[k]++
			}
		}
	}
	feed := func(side int, tp tuple.Tuple) {
		outs.Reset()
		if err := neg.ProcessBatch(side, []tuple.Tuple{tp}, now, &outs); err != nil {
			t.Fatal(err)
		}
		fold(negAns, outs.Tuples())
		outs.Reset()
		row := tp
		row.Vals = tp.Vals[:1]
		if err := isect.ProcessBatch(side, []tuple.Tuple{row}, now, &outs); err != nil {
			t.Fatal(err)
		}
		fold(isecAns, outs.Tuples())
	}
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch op {
		case 0, 1, 2, 3:
			side := int(op % 2)
			life := 1 + int64(arg/4%16)
			exp := now + life
			if life == 16 || !timeExpiry {
				exp = tuple.NeverExpires
			}
			id++
			tp := tuple.Tuple{TS: now, Exp: exp, Vals: []tuple.Value{tuple.Int(int64(arg % 4)), tuple.String_("x"), tuple.Int(id)}}
			trace = append(trace, fmt.Sprintf("t=%d side %d +%v", now, side, tp))
			live[side] = append(live[side], tp)
			feed(side, tp)
		case 4, 5:
			side := int(op - 4)
			pool := &live[side]
			if arg >= 128 {
				pool = &expired[side]
			}
			if len(*pool) == 0 {
				continue
			}
			j := int(arg) % len(*pool)
			tp := (*pool)[j]
			*pool = slices.Delete(*pool, j, j+1)
			trace = append(trace, fmt.Sprintf("t=%d side %d -%v", now, side, tp))
			feed(side, tp.Negative(now))
		default:
			if op == 6 {
				now += int64(arg % 4)
			} else {
				now += 20 + int64(arg%8)
			}
			trace = append(trace, fmt.Sprintf("advance %d", now))
			if timeExpiry {
				for side := range live {
					live[side] = slices.DeleteFunc(live[side], func(tp tuple.Tuple) bool {
						if tp.Expired(now) {
							expired[side] = append(expired[side], tp)
						}
						return tp.Expired(now)
					})
				}
				for _, bag := range []map[result]int{negAns, isecAns} {
					maps.DeleteFunc(bag, func(k result, _ int) bool { return k.exp <= now })
				}
			}
			adv, err := neg.Advance(now)
			if err != nil {
				t.Fatal(err)
			}
			fold(negAns, adv)
			adv, err = isect.Advance(now)
			if err != nil {
				t.Fatal(err)
			}
			fold(isecAns, adv)
		}
		if got, want := render(negAns), render(negationModel(live)); got != want {
			t.Fatalf("%v\nnegation answer %s, model %s", trace, got, want)
		}
		if got, want := valueCounts(isecAns), intersectionModel(live); got != want {
			t.Fatalf("%v\nintersection answer %s, model %s", trace, got, want)
		}
		values := map[int64]bool{}
		for side := range live {
			for _, tp := range live[side] {
				values[tp.Vals[0].I] = true
			}
		}
		if neg.slots.Len() != len(values) || isect.slots.Len() != len(values) {
			t.Fatalf("%v\nslots: negation %d, intersection %d; values with a live tuple %d",
				trace, neg.slots.Len(), isect.slots.Len(), len(values))
		}
	}
}

// negationModel is Equation 1 with the answer as each value's youngest
// max(v1 − v2, 0) W1 tuples in arrival order.
func negationModel(live [2][]tuple.Tuple) map[result]int {
	out := map[result]int{}
	for v := int64(0); v < 4; v++ {
		var w1 []tuple.Tuple
		w2 := 0
		for _, tp := range live[0] {
			if tp.Vals[0].I == v {
				w1 = append(w1, tp)
			}
		}
		for _, tp := range live[1] {
			if tp.Vals[0].I == v {
				w2++
			}
		}
		for _, tp := range w1[min(w2, len(w1)):] {
			out[resultOf(tp)]++
		}
	}
	return out
}

// intersectionModel renders min(v1, v2) per value.
func intersectionModel(live [2][]tuple.Tuple) string {
	var n [2][4]int
	for side := range live {
		for _, tp := range live[side] {
			n[side][tp.Vals[0].I]++
		}
	}
	var s string
	for v := range 4 {
		s += fmt.Sprintf("%d:%d ", v, min(n[0][v], n[1][v]))
	}
	return s
}

// valueCounts renders an intersection answer bag as copies per value.
func valueCounts(bag map[result]int) string {
	var n [4]int
	for k, c := range bag {
		n[k.value] += c
	}
	var s string
	for v := range 4 {
		s += fmt.Sprintf("%d:%d ", v, n[v])
	}
	return s
}

// result is a folded answer tuple: its rendered values, the negation value
// (the first column) and Exp.
type result struct {
	vals  string
	value int64
	exp   int64
}

func resultOf(tp tuple.Tuple) result {
	return result{fmt.Sprint(tp.Vals), tp.Vals[0].I, tp.Exp}
}

func render(bag map[result]int) string {
	var keys []string
	for k, c := range bag {
		for range c {
			keys = append(keys, fmt.Sprintf("%s@%d", k.vals, k.exp))
		}
	}
	slices.Sort(keys)
	return fmt.Sprint(keys)
}
