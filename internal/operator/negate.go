package operator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Negate is the window negation operator of Section 2.1: with W1 and W2 as
// its inputs and multiplicities v1, v2 of a value v on the negation
// attribute, the answer contains exactly max(v1 − v2, 0) W1-tuples with
// value v (Equation 1).
//
// Negation is the paper's canonical strict non-monotonic operator: a W2
// arrival can force previously reported results out of the answer before
// their windows expire, which the operator announces with negative tuples.
// Conversely, a W2 expiration can bring a live W1 tuple (back) into the
// answer, emitting a positive result whose exp is the W1 tuple's own.
//
// The paper's event rules — "append the new arrival when v1 > v2", "delete
// the oldest on a W2 arrival", "append the youngest on a W2 expiration" —
// say that the answer for a value is its youngest max(v1 − v2, 0) W1 tuples
// in arrival order, which is what the Definition-1 oracle computes. So each
// value keeps its W1 tuples on one list in arrival order, and the answer is
// that list's suffix from a boundary entry on: an event moves the boundary
// by at most one step and emits at most one delta. The rule also covers the
// corner the event rules leave implicit — a W1 tuple outside the answer
// expiring shrinks the quota, and the boundary moves on.
//
// Per Section 5.4.1 the multiplicity counters support fast (here: hashed)
// lookup; both windows' tuples are tracked with eager expiration calendars
// that fire straight to the entry expiring (quotaCore).
type Negate struct {
	quotaCore
	schema    *tuple.Schema
	keyCols   []int
	rightCols []int
	slots     statebuf.Table[negSlot]
	negOnExp  bool
	// prematureRetractions counts answers killed by negative tuples — the
	// signal that drives the STR storage choice in Section 5.3.2.
	prematureRetractions int64
	// advWave numbers the expiration waves; a slot whose wave equals it is
	// already in advOrder, the wave's reusable list of values touched.
	advWave  uint64
	advOrder []int32
}

// negSlot is one value's state: its W1 and W2 tuples in arrival order, and
// the answer, the W1 suffix from ans on (ans is 0 while it is empty). A slot
// holding no tuple is deleted.
type negSlot struct {
	w    [2]qList
	ans  int32
	nAns int32
	wave uint64 // the last expiration wave that touched the value (see advWave)
}

// NegateConfig configures a negation operator.
type NegateConfig struct {
	Left, Right *tuple.Schema
	// LeftCols/RightCols are the negation attribute positions, pairwise.
	LeftCols, RightCols []int
	// Horizon bounds stored tuple lifetimes (max window size of the inputs).
	Horizon int64
	// Partitions sizes the expiration calendars (default 10).
	Partitions int
	// ListCalendars swaps the partitioned expiration calendars for plain
	// lists — the DIRECT baseline, paying sequential scans per expiration.
	ListCalendars bool
	// NoTimeExpiry disables exp-timestamp expiration (negative-tuple
	// strategy: both windows retract explicitly).
	NoTimeExpiry bool
	// NegativeOnExpiry makes the operator emit a negative tuple for every
	// in-answer expiration, not just premature ones — the "negative tuple
	// approach above negation" of Section 5.4.3, which lets the result be
	// stored in a hash table with no timestamp scans at all.
	NegativeOnExpiry bool
}

// NewNegate builds a negation operator. The output schema is the left
// input's schema (results are W1 tuples).
func NewNegate(cfg NegateConfig) (*Negate, error) {
	if len(cfg.LeftCols) == 0 || len(cfg.LeftCols) != len(cfg.RightCols) {
		return nil, fmt.Errorf("negate: attribute columns must be non-empty and pairwise")
	}
	for _, c := range cfg.LeftCols {
		if c < 0 || c >= cfg.Left.Len() {
			return nil, fmt.Errorf("negate: left column %d out of range", c)
		}
	}
	for _, c := range cfg.RightCols {
		if c < 0 || c >= cfg.Right.Len() {
			return nil, fmt.Errorf("negate: right column %d out of range", c)
		}
	}
	n := &Negate{
		schema:    cfg.Left,
		keyCols:   append([]int(nil), cfg.LeftCols...),
		rightCols: append([]int(nil), cfg.RightCols...),
		negOnExp:  cfg.NegativeOnExpiry,
	}
	n.init(cfg.ListCalendars, cfg.Partitions, cfg.Horizon, !cfg.NoTimeExpiry)
	return n, nil
}

// Class implements Operator.
func (n *Negate) Class() core.OpClass { return core.OpNegate }

// Schema implements Operator.
func (n *Negate) Schema() *tuple.Schema { return n.schema }

// PrematureRetractions returns how many results were killed by negative
// tuples so far — frequent premature expiration favours the hash/NT storage
// for the result (Section 5.3.2).
func (n *Negate) PrematureRetractions() int64 { return n.prematureRetractions }

// ProcessBatch implements Operator: expiration/repair of both calendars
// runs once per run, then the per-tuple event rules append into the shared
// buffer.
func (n *Negate) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 && side != 1 {
		return badSide("negate", side)
	}
	adv, err := n.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		n.processOne(side, in[i], now, out)
	}
	return nil
}

// processOne applies one event of a run to its value's slot — looked up, or
// created — and deletes the slot if it holds no tuple afterwards, so a
// retraction that takes nothing (its tuple expired already, or never came)
// leaves no slot behind either. The caller has already run Advance for now.
func (n *Negate) processOne(side int, t tuple.Tuple, now int64, out *Emit) {
	cols := n.keyCols
	if side == 1 {
		cols = n.rightCols
	}
	ref, _ := n.slots.UpsertRow(t, cols)
	s := n.slots.At(ref)
	switch {
	case !t.Neg:
		_, e := n.add(side, ref, &s.w[side], t)
		if side == 0 && s.nAns > 0 {
			// It lands behind a non-empty answer, which is then exactly
			// v1 − v2 long: the quota grows by one and the arrival is in.
			n.admit(s, e, now, out)
		}
	case n.gone(t, now):
	default:
		switch v := n.victim(side, &s.w[side], t); {
		case v == 0:
		case side == 1:
			n.remove(&s.w[1], v)
		default:
			if e := n.ents.At(v); e.inAns {
				out.Append(e.t.Negative(now))
				n.prematureRetractions++
			}
			n.dropW1(s, v)
		}
	}
	n.repair(s, now, out)
	n.tidy(ref)
}

// victim names the tuple a retraction of t takes on side: the first in
// arrival order with t's Exp (negative tuples carry the original's), else the
// first — among those with t's values on W1, where they tell tuples apart,
// among all on W2, which counts copies of its value.
func (n *Negate) victim(side int, l *qList, t tuple.Tuple) int32 {
	var first int32
	for ref := l.head; ref != 0; ref = n.next(arrivals, ref) {
		n.touched++
		e := n.ents.At(ref)
		if side == 0 && !e.t.SameVals(t) {
			continue
		}
		if e.t.Exp == t.Exp {
			return ref
		}
		if first == 0 {
			first = ref
		}
	}
	return first
}

// dropW1 removes a W1 tuple, moving the boundary past it if it was the
// answer's oldest.
func (n *Negate) dropW1(s *negSlot, ref int32) {
	e := n.ents.At(ref)
	if e.inAns {
		if s.ans == ref {
			s.ans = e.link[arrivals].next
		}
		s.nAns--
	}
	n.remove(&s.w[0], ref)
}

// tidy deletes a slot that holds no tuple.
func (n *Negate) tidy(ref int32) {
	if s := n.slots.At(ref); s.w[0].n == 0 && s.w[1].n == 0 {
		n.slots.Delete(ref)
	}
}

// repair moves the value's boundary until the answer is its youngest
// max(v1 − v2, 0) W1 tuples: past the oldest members, retracting them (the
// paper deletes the oldest on a W2 arrival), or back over the youngest
// outsiders, admitting them (it appends the youngest on a W2 expiration).
func (n *Negate) repair(s *negSlot, now int64, out *Emit) {
	target := max(s.w[0].n-s.w[1].n, 0)
	for s.nAns > target {
		n.touched++
		e := n.ents.At(s.ans)
		e.inAns = false
		out.Append(e.t.Negative(now))
		n.prematureRetractions++
		s.ans = e.link[arrivals].next
		s.nAns--
	}
	for s.nAns < target {
		if s.ans == 0 {
			s.ans = s.w[0].tail
		} else {
			s.ans = n.ents.At(s.ans).link[arrivals].prev
		}
		n.admit(s, n.ents.At(s.ans), now, out)
	}
}

// admit puts a W1 tuple into the answer, emitting it stamped now.
func (n *Negate) admit(s *negSlot, e *qEntry, now int64, out *Emit) {
	n.touched++
	e.inAns = true
	r := e.t
	r.TS = now
	out.Append(r)
	s.nAns++
}

// Advance expires both inputs eagerly: W1 expirations shrink quotas (an
// in-answer copy leaves the result via its own exp downstream); W2
// expirations grow quotas and may re-admit live W1 tuples. Each value the
// wave touched is repaired once, after all of them, in key order.
func (n *Negate) Advance(now int64) ([]tuple.Tuple, error) {
	if !n.timeExpiry || now <= n.clock {
		return nil, nil
	}
	n.clock = now
	out := &n.advOut
	out.Reset()
	n.advWave++
	n.advOrder = n.advOrder[:0]
	for side := range 2 {
		for _, ref := range n.fired(side, now) {
			n.touched++
			e := n.ents.At(ref)
			slot := e.slot
			s := n.slots.At(slot)
			if side == 0 {
				if n.negOnExp && e.inAns {
					out.Append(e.t.Negative(now))
				}
				n.dropW1(s, ref)
			} else {
				n.remove(&s.w[1], ref)
			}
			if s.wave != n.advWave {
				s.wave = n.advWave
				n.advOrder = append(n.advOrder, slot)
			}
		}
	}
	if len(n.advOrder) > 1 {
		n.slots.SortByKey(n.advOrder)
	}
	// Emptied slots are deleted only after the repairs: nothing in the wave
	// allocates a slot, so every noted reference stays valid until then.
	for _, ref := range n.advOrder {
		n.repair(n.slots.At(ref), now, out)
		n.tidy(ref)
	}
	return out.ts, nil
}

// StateSize implements Operator: live entries of both windows plus the
// expiration calendars tracking them (which can exceed the live counts while
// retracted entries wait to fire) — consistent with the other stateful
// operators' expiry-index accounting, and O(1), since the engine samples it
// on a metrics cadence.
func (n *Negate) StateSize() int { return n.size[0] + n.size[1] + n.calLen() }

// Touched implements Operator.
func (n *Negate) Touched() int64 { return n.touched + n.calTouched() }
