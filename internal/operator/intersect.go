package operator

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Intersect is multiset window intersection (Section 2.1): at any time the
// answer holds min(v1, v2) tuples for each value v, where v1 and v2 are the
// value's multiplicities in the two (layout-equal) inputs.
//
// To stay weak non-monotonic — every result must carry a firm exp — each
// emitted result is backed by a pair of supporting tuples, one per side, and
// expires at the earlier of their expirations. When a support expires, its
// partner (if still live) greedily re-pairs with the longest-lived unpaired
// tuple on the opposite side, emitting a replacement result — the same
// replacement discipline duplicate elimination uses (Figure 2). Negative
// tuples on either input retract a support; retracting a paired support
// retracts its result with a negative tuple, so strict inputs yield strict
// output (Rule 3).
//
// Supports are quotaCore entries: per value and side, on an arrival-order
// list, each naming its partner, and the unpaired ones also on a list in
// (Exp, arrival) order whose tail is the longest-lived, so a pairing looks at
// one end of one list.
type Intersect struct {
	quotaCore
	schema  *tuple.Schema
	slots   statebuf.Table[isectSlot]
	allCols []int
	seq     uint32 // arrivals numbered so far
	// jobs are the expiration wave's survivors to re-pair, reused.
	jobs []int32
}

// isectSlot is one value's supports: per side, in arrival order, and the
// unpaired ones in (Exp, arrival) order.
type isectSlot struct {
	sup, free [2]qList
}

// IntersectConfig configures an intersection.
type IntersectConfig struct {
	Left, Right *tuple.Schema
	// Horizon bounds tuple lifetimes (the larger window size).
	Horizon int64
	// Partitions sizes the expiration calendars (default 10).
	Partitions int
	// ListCalendars swaps the calendars for plain lists (DIRECT baseline).
	ListCalendars bool
	// NoTimeExpiry disables exp-timestamp expiration (negative-tuple
	// strategy).
	NoTimeExpiry bool
}

// NewIntersect builds an intersection; the inputs must be layout-equal.
func NewIntersect(cfg IntersectConfig) (*Intersect, error) {
	if !cfg.Left.EqualLayout(cfg.Right) {
		return nil, fmt.Errorf("intersect: schemas %v and %v are not layout-equal", cfg.Left, cfg.Right)
	}
	x := &Intersect{schema: cfg.Left, allCols: allColumns(cfg.Left.Len())}
	x.init(cfg.ListCalendars, cfg.Partitions, cfg.Horizon, !cfg.NoTimeExpiry)
	return x, nil
}

// Class implements Operator.
func (x *Intersect) Class() core.OpClass { return core.OpIntersect }

// Schema implements Operator.
func (x *Intersect) Schema() *tuple.Schema { return x.schema }

// ProcessBatch implements Operator: support expiration/re-pairing runs
// once per run, then the per-tuple bodies append into the shared buffer.
func (x *Intersect) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 && side != 1 {
		return badSide("intersect", side)
	}
	adv, err := x.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		x.processOne(side, in[i], now, out)
	}
	return nil
}

// processOne handles one element of a run; the caller has already run
// Advance for now.
func (x *Intersect) processOne(side int, t tuple.Tuple, now int64, out *Emit) {
	if t.Neg {
		if x.gone(t, now) {
			return
		}
		if ref := x.slots.FindRow(t, x.allCols); ref != 0 {
			x.retract(side, ref, t, now, out)
		}
		return
	}
	slot, _ := x.slots.UpsertRow(t, x.allCols)
	s := x.slots.At(slot)
	ref, e := x.add(side, slot, &s.sup[side], t)
	e.seq = x.seq
	x.seq++
	x.settle(s, ref, false, now, out)
}

// settle pairs the unpaired support ref with the longest-lived unpaired live
// support on the other side — the first to arrive among equally long-lived
// ones — and emits the result; a support that finds no partner waits on its
// side's unpaired list, where parked says it already is.
func (x *Intersect) settle(s *isectSlot, ref int32, parked bool, now int64, out *Emit) {
	e := x.ents.At(ref)
	o := 1 - int(e.side)
	c := s.free[o].tail
	if c == 0 || x.ents.At(c).t.Expired(now) {
		if !parked {
			x.park(&s.free[e.side], ref)
		}
		return
	}
	exp := x.ents.At(c).t.Exp
	for p := x.ents.At(c).link[unpaired].prev; p != 0 && x.ents.At(p).t.Exp == exp; p = x.ents.At(p).link[unpaired].prev {
		x.touched++
		c = p
	}
	x.touched++
	x.unlink(&s.free[o], unpaired, c)
	if parked {
		x.unlink(&s.free[e.side], unpaired, ref)
	}
	e.mate, x.ents.At(c).mate = c, ref
	r := e.t
	r.TS = now
	r.Exp = min(e.t.Exp, exp)
	out.Append(r)
}

// park puts an unpaired support on its list at its (Exp, arrival) place,
// walking from the tail, so in-order input costs O(1).
func (x *Intersect) park(l *qList, ref int32) {
	e := x.ents.At(ref)
	at := l.tail
	for at != 0 {
		a := x.ents.At(at)
		if a.t.Exp < e.t.Exp || a.t.Exp == e.t.Exp && int32(a.seq-e.seq) < 0 {
			break
		}
		x.touched++
		at = a.link[unpaired].prev
	}
	x.insert(l, unpaired, at, ref)
}

// victim names the support on side a retraction of t takes. The exact
// expiration match the negative tuple names identifies the actual tuple;
// among those an unpaired one is preferred (less churn), then the first to
// arrive. Without an exact match, the first unpaired support to arrive goes,
// else the first.
func (x *Intersect) victim(s *isectSlot, side int, t tuple.Tuple) int32 {
	for ref := s.free[side].head; ref != 0; ref = x.next(unpaired, ref) {
		x.touched++
		if exp := x.ents.At(ref).t.Exp; exp >= t.Exp {
			if exp == t.Exp {
				return ref
			}
			break
		}
	}
	var spare int32
	for ref := s.sup[side].head; ref != 0; ref = x.next(arrivals, ref) {
		x.touched++
		e := x.ents.At(ref)
		if e.t.Exp == t.Exp {
			return ref
		}
		if spare == 0 && e.mate == 0 {
			spare = ref
		}
	}
	if spare != 0 {
		return spare
	}
	return s.sup[side].head
}

// retract removes the support on side a negative tuple names. Retracting a
// paired support emits a negative result and attempts a replacement pairing
// for the partner.
func (x *Intersect) retract(side int, slot int32, t tuple.Tuple, now int64, out *Emit) {
	s := x.slots.At(slot)
	ref := x.victim(s, side, t)
	if ref == 0 {
		return
	}
	lost := x.ents.At(ref).t
	if p := x.drop(s, ref); p != 0 {
		pe := x.ents.At(p)
		neg := lost.Negative(now)
		neg.Exp = min(lost.Exp, pe.t.Exp)
		out.Append(neg)
		if pe.t.Expired(now) {
			x.park(&s.free[pe.side], p)
		} else {
			x.settle(s, p, false, now, out)
		}
	}
	x.tidy(slot)
}

// drop takes support ref off its lists and returns its partner, unpaired
// now and on no unpaired list yet, or 0.
func (x *Intersect) drop(s *isectSlot, ref int32) int32 {
	e := x.ents.At(ref)
	side, p := int(e.side), e.mate
	if p == 0 {
		x.unlink(&s.free[side], unpaired, ref)
	} else {
		x.ents.At(p).mate = 0
	}
	x.remove(&s.sup[side], ref)
	return p
}

// tidy deletes a slot that holds no support.
func (x *Intersect) tidy(slot int32) {
	if s := x.slots.At(slot); s.sup[0].n+s.sup[1].n == 0 {
		x.slots.Delete(slot)
	}
}

// Advance expires supports eagerly. A result whose pair loses a support
// expires on its own exp downstream; the surviving partner re-pairs if it
// can, emitting a replacement, once every expiration of the wave has
// settled, in (side, TS) order.
func (x *Intersect) Advance(now int64) ([]tuple.Tuple, error) {
	if !x.timeExpiry || now <= x.clock {
		return nil, nil
	}
	x.clock = now
	x.jobs = x.jobs[:0]
	for side := range 2 {
		for _, ref := range x.fired(side, now) {
			x.touched++
			slot := x.ents.At(ref).slot
			s := x.slots.At(slot)
			if p := x.drop(s, ref); p != 0 {
				pe := x.ents.At(p)
				x.park(&s.free[pe.side], p)
				if !pe.t.Expired(now) {
					x.jobs = append(x.jobs, p)
				}
			}
			// A survivor keeps its slot: only an emptied one goes.
			x.tidy(slot)
		}
	}
	slices.SortStableFunc(x.jobs, x.jobOrder)
	out := &x.advOut
	out.Reset()
	for _, ref := range x.jobs {
		if e := x.ents.At(ref); e.mate == 0 {
			x.settle(x.slots.At(e.slot), ref, true, now, out)
		}
	}
	return out.Tuples(), nil
}

// jobOrder orders re-pairing survivors by side, then TS.
func (x *Intersect) jobOrder(a, b int32) int {
	ea, eb := x.ents.At(a), x.ents.At(b)
	if ea.side != eb.side {
		return int(ea.side) - int(eb.side)
	}
	return cmp.Compare(ea.t.TS, eb.t.TS)
}

// StateSize implements Operator.
func (x *Intersect) StateSize() int { return x.size[0] + x.size[1] }

// Touched implements Operator.
func (x *Intersect) Touched() int64 { return x.touched + x.calTouched() }
