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
type Intersect struct {
	schema     *tuple.Schema
	slots      statebuf.Table[isectSupports]
	expIdx     [2]statebuf.Buffer
	allCols    []int
	sizes      [2]int
	clock      int64
	timeExpiry bool
	touched    int64
	// advOut is the expiration wave's output: what Advance returns is valid
	// until the next Advance.
	advOut Emit
}

// isectSupports is one value's supports, side by side, so a tuple's own
// side and its partner's are one lookup.
type isectSupports [2][]*isectEntry

type isectEntry struct {
	t       tuple.Tuple
	partner *isectEntry
	side    int
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
	return &Intersect{
		schema: cfg.Left,
		expIdx: [2]statebuf.Buffer{
			expiryCalendar(cfg.ListCalendars, cfg.Partitions, cfg.Horizon),
			expiryCalendar(cfg.ListCalendars, cfg.Partitions, cfg.Horizon),
		},
		allCols:    allColumns(cfg.Left.Len()),
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry,
	}, nil
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
		if ref := x.slots.FindRow(t, x.allCols); ref != 0 {
			x.retract(side, ref, t, now, out)
		}
		return
	}
	ref, _ := x.slots.UpsertRow(t, x.allCols)
	e := &isectEntry{t: t, side: side}
	supports := x.slots.At(ref)
	supports[side] = append(supports[side], e)
	x.sizes[side]++
	x.expIdx[side].Insert(t)
	if r := x.tryPair(e, ref, now); r != nil {
		out.Append(*r)
	}
}

// tryPair pairs e with the longest-lived unpaired live tuple on the opposite
// side, returning the emitted result if a pair forms.
func (x *Intersect) tryPair(e *isectEntry, ref int32, now int64) *tuple.Tuple {
	var best *isectEntry
	for _, c := range x.slots.At(ref)[1-e.side] {
		x.touched++
		if c.partner != nil || c.t.Expired(now) {
			continue
		}
		if best == nil || c.t.Exp > best.t.Exp {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	e.partner, best.partner = best, e
	exp := e.t.Exp
	if best.t.Exp < exp {
		exp = best.t.Exp
	}
	r := e.t
	r.TS = now
	r.Exp = exp
	return &r
}

// retract removes one support on side matching t, preferring the exact
// expiration match the negative tuple names (it identifies the actual
// tuple), then unpaired entries (less churn). Retracting a paired support
// emits a negative result and attempts a replacement pairing for the partner.
func (x *Intersect) retract(side int, ref int32, t tuple.Tuple, now int64, out *Emit) {
	entries := x.slots.At(ref)[side]
	score := func(e *isectEntry) int {
		s := 0
		if e.t.Exp == t.Exp {
			s += 2
		}
		if e.partner == nil {
			s++
		}
		return s
	}
	victim := -1
	for i, e := range entries {
		x.touched++
		if !e.t.SameVals(t) {
			continue
		}
		if victim < 0 || score(e) > score(entries[victim]) {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	e := entries[victim]
	x.drop(side, ref, victim)
	if e.partner == nil {
		return
	}
	p := e.partner
	p.partner, e.partner = nil, nil
	exp := e.t.Exp
	if p.t.Exp < exp {
		exp = p.t.Exp
	}
	neg := e.t.Negative(now)
	neg.Exp = exp
	out.Append(neg)
	if !p.t.Expired(now) {
		if r := x.tryPair(p, ref, now); r != nil {
			out.Append(*r)
		}
	}
}

// drop removes support i on side from slot ref, deleting the slot once
// neither side holds a support. A retracted support's partner lives on in the
// same slot, so the slot outlives the drop whenever a re-pairing follows.
func (x *Intersect) drop(side int, ref int32, i int) {
	supports := x.slots.At(ref)
	supports[side] = append(supports[side][:i], supports[side][i+1:]...)
	if len(supports[0])+len(supports[1]) == 0 {
		x.slots.Delete(ref)
	}
	x.sizes[side]--
}

// Advance expires supports eagerly. A result whose pair loses a support
// expires on its own exp downstream; the surviving partner re-pairs if it
// can, emitting a replacement.
func (x *Intersect) Advance(now int64) ([]tuple.Tuple, error) {
	if !x.timeExpiry || now <= x.clock {
		return nil, nil
	}
	x.clock = now
	type repairJob struct {
		e   *isectEntry
		ref int32
	}
	var jobs []repairJob
	for side := 0; side < 2; side++ {
		for _, t := range x.expIdx[side].ExpireUpTo(now) {
			ref := x.slots.FindRow(t, x.allCols)
			if ref == 0 {
				continue // stale calendar entry (support was retracted)
			}
			entries := x.slots.At(ref)[side]
			victim := -1
			for i, e := range entries {
				x.touched++
				if !e.t.SameVals(t) || e.t.Exp != t.Exp {
					continue
				}
				victim = i
				break
			}
			if victim < 0 {
				continue // stale calendar entry (support was retracted)
			}
			e := entries[victim]
			x.drop(side, ref, victim)
			if p := e.partner; p != nil {
				p.partner, e.partner = nil, nil
				if !p.t.Expired(now) {
					jobs = append(jobs, repairJob{e: p, ref: ref})
				}
			}
		}
	}
	// Re-pair survivors deterministically after all expirations settle. A
	// job's slot holds its live support, so it is still the value's.
	slices.SortStableFunc(jobs, func(a, b repairJob) int {
		if a.e.side != b.e.side {
			return a.e.side - b.e.side
		}
		return cmp.Compare(a.e.t.TS, b.e.t.TS)
	})
	out := &x.advOut
	out.Reset()
	for _, j := range jobs {
		if j.e.partner != nil || j.e.t.Expired(now) {
			continue // already re-paired by an earlier job
		}
		if r := x.tryPair(j.e, j.ref, now); r != nil {
			out.Append(*r)
		}
	}
	return out.Tuples(), nil
}

// StateSize implements Operator.
func (x *Intersect) StateSize() int { return x.sizes[0] + x.sizes[1] }

// Touched implements Operator.
func (x *Intersect) Touched() int64 {
	return x.touched + x.expIdx[0].Touched() + x.expIdx[1].Touched()
}
