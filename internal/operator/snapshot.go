package operator

// This file implements checkpoint.Snapshotter for every operator. Each
// operator serializes only its dynamic state — configuration (schemas, key
// columns, aggregate specs, buffer choices) is rebuilt from the plan, and the
// executor's restore fingerprint guarantees the plan matches before any
// LoadState runs. Keyed state is a statebuf.Table, which writes each slot's
// key through the Key codec, so a decoded key finds the slot it was saved
// from even where no stored tuple could recompute it (Negate's W2 counters);
// the operator supplies only the payload.

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Compile-time checks that every operator participates in checkpoints.
var (
	_ checkpoint.Snapshotter = (*Select)(nil)
	_ checkpoint.Snapshotter = (*Project)(nil)
	_ checkpoint.Snapshotter = (*Union)(nil)
	_ checkpoint.Snapshotter = (*Join)(nil)
	_ checkpoint.Snapshotter = (*Distinct)(nil)
	_ checkpoint.Snapshotter = (*DistinctDelta)(nil)
	_ checkpoint.Snapshotter = (*GroupBy)(nil)
	_ checkpoint.Snapshotter = (*Negate)(nil)
	_ checkpoint.Snapshotter = (*Intersect)(nil)
	_ checkpoint.Snapshotter = (*NRRJoin)(nil)
	_ checkpoint.Snapshotter = (*RelJoin)(nil)
)

// SaveState implements checkpoint.Snapshotter (stateless: empty section).
func (s *Select) SaveState(enc *checkpoint.Encoder) error { return enc.Err() }

// LoadState implements checkpoint.Snapshotter.
func (s *Select) LoadState(dec *checkpoint.Decoder) error { return dec.Err() }

// SaveState implements checkpoint.Snapshotter (stateless: empty section).
func (p *Project) SaveState(enc *checkpoint.Encoder) error { return enc.Err() }

// LoadState implements checkpoint.Snapshotter.
func (p *Project) LoadState(dec *checkpoint.Decoder) error { return dec.Err() }

// SaveState implements checkpoint.Snapshotter: only the order-assertion
// cursor.
func (u *Union) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(u.lastTS)
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (u *Union) LoadState(dec *checkpoint.Decoder) error {
	u.lastTS = dec.Varint()
	return dec.Err()
}

// SaveState implements checkpoint.Snapshotter: clock, then both side buffers.
func (j *Join) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(j.clock)
	if err := j.state[0].SaveState(enc); err != nil {
		return err
	}
	return j.state[1].SaveState(enc)
}

// LoadState implements checkpoint.Snapshotter. Restored rows hold
// decoder-built value slices, not arena rows, so expired-row recycling stays
// off for this join (see Join.mixedState).
func (j *Join) LoadState(dec *checkpoint.Decoder) error {
	j.clock = dec.Varint()
	j.mixedState = true
	if err := j.state[0].LoadState(dec); err != nil {
		return err
	}
	return j.state[1].LoadState(dec)
}

// SaveState implements checkpoint.Snapshotter: clocks and counters, the
// representative map, then the input and expiration-index buffers.
func (d *Distinct) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(d.clock)
	enc.Varint(d.lastTrim)
	enc.Varint(d.touched)
	d.reps.Save(enc, nil, nil, func(t *tuple.Tuple) { enc.Tuple(*t) })
	if err := d.input.SaveState(enc); err != nil {
		return err
	}
	return d.expIdx.SaveState(enc)
}

// LoadState implements checkpoint.Snapshotter.
func (d *Distinct) LoadState(dec *checkpoint.Decoder) error {
	d.clock = dec.Varint()
	d.lastTrim = dec.Varint()
	d.touched = dec.Varint()
	d.reps = statebuf.Table[tuple.Tuple]{}
	if err := d.reps.Load(dec, func(t *tuple.Tuple, _ bool) error { *t = dec.Tuple(); return nil }); err != nil {
		return err
	}
	if err := d.input.LoadState(dec); err != nil {
		return err
	}
	return d.expIdx.LoadState(dec)
}

// SaveState implements checkpoint.Snapshotter: clock, the representatives,
// the auxiliaries (one section each), then the expiration calendar.
func (d *DistinctDelta) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(d.clock)
	d.slots.Save(enc, nil, nil, func(s *deltaSlot) { enc.Tuple(s.rep) })
	d.slots.Save(enc, func(s *deltaSlot) bool { return s.aux.Vals != nil }, nil, func(s *deltaSlot) { enc.Tuple(s.aux) })
	return d.expIdx.SaveState(enc)
}

// LoadState implements checkpoint.Snapshotter. An auxiliary whose value has
// no representative is corrupt: δ never keeps one.
func (d *DistinctDelta) LoadState(dec *checkpoint.Decoder) error {
	d.clock = dec.Varint()
	d.slots, d.naux = statebuf.Table[deltaSlot]{}, 0
	err := d.slots.Load(dec, func(s *deltaSlot, _ bool) error { s.rep = dec.Tuple(); return nil })
	if err == nil {
		err = d.slots.Load(dec, func(s *deltaSlot, fresh bool) error {
			if fresh {
				return fmt.Errorf("%w: distinct-delta auxiliary without a representative", checkpoint.ErrCorrupt)
			}
			d.keepAux(s, dec.Tuple())
			return nil
		})
	}
	if err != nil {
		return err
	}
	return d.expIdx.LoadState(dec)
}

// saveAgg / loadAgg serialize one per-group aggregate cell. The spec is
// plan-provided; only the running values travel. SUM/AVG write their derived
// total, so a NaN or an infinity travels as the value it reads, and a finite
// cell as its finite sum. MIN/MAX multisets keep their
// live value multiplicities, written in value order: no two entries compare
// equal, so the order is total. Loading merges entries whose values are
// Equal, which an older encoder could write apart (1 and 1.0, two NaNs).
func saveAgg(enc *checkpoint.Encoder, a *aggState) {
	enc.Varint(a.n)
	enc.Float(a.total())
	enc.Bool(a.multi != nil)
	if a.multi != nil {
		live := make([]liveValue, 0, len(a.multi))
		for _, e := range a.multi {
			live = append(live, e)
		}
		slices.SortFunc(live, func(x, y liveValue) int { return x.v.Compare(y.v) })
		enc.Uvarint(uint64(len(live)))
		for _, e := range live {
			enc.Value(e.v)
			enc.Varint(int64(e.n))
		}
	}
}

func loadAgg(dec *checkpoint.Decoder, spec AggSpec) (*aggState, error) {
	a := newAggState(spec)
	a.n = dec.Varint()
	a.setTotal(dec.Float())
	hasMulti := dec.Bool()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if hasMulti != (a.multi != nil) {
		return nil, fmt.Errorf("%w: aggregate multiset flag disagrees with spec %v", checkpoint.ErrCorrupt, spec)
	}
	if hasMulti {
		n := dec.Count()
		for i := 0; i < n && dec.Err() == nil; i++ {
			v := dec.Value()
			a.addLive(v, int(dec.Varint()))
		}
	}
	return a, dec.Err()
}

// SaveState implements checkpoint.Snapshotter: clock, the optional input
// buffer, then every group (key, key values, last emitted row, one aggregate
// cell per spec — the spec count is plan-known and not serialized).
func (g *GroupBy) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(g.clock)
	enc.Bool(g.input != nil)
	if g.input != nil {
		if err := g.input.SaveState(enc); err != nil {
			return err
		}
	}
	g.groups.Save(enc, nil, nil, func(gs *groupState) {
		enc.Uvarint(uint64(len(gs.keyVals)))
		for _, v := range gs.keyVals {
			enc.Value(v)
		}
		enc.Tuple(gs.last)
		for _, a := range gs.aggs {
			saveAgg(enc, a)
		}
	})
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (g *GroupBy) LoadState(dec *checkpoint.Decoder) error {
	g.clock = dec.Varint()
	hasInput := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasInput != (g.input != nil) {
		return fmt.Errorf("%w: groupby input-store flag disagrees with plan", checkpoint.ErrCorrupt)
	}
	if g.input != nil {
		if err := g.input.LoadState(dec); err != nil {
			return err
		}
	}
	g.groups = statebuf.Table[groupState]{}
	err := g.groups.Load(dec, func(gs *groupState, _ bool) error {
		nv := dec.Count()
		for j := 0; j < nv && dec.Err() == nil; j++ {
			gs.keyVals = append(gs.keyVals, dec.Value())
		}
		gs.last = dec.Tuple()
		for _, spec := range g.specs {
			a, err := loadAgg(dec, spec)
			if err != nil {
				return err
			}
			gs.aggs = append(gs.aggs, a)
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.recountNonFinite()
	return nil
}

// recountNonFinite rebuilds every SUM and AVG cell that loaded a non-finite
// total from its group's live tuples in the restored input store: the total
// does not say which live values made it, nor what the finite ones add up
// to. Without an input store nothing ever leaves, so the loaded total is all
// such a cell needs.
func (g *GroupBy) recountNonFinite() {
	if g.input == nil {
		return
	}
	stale := make(map[*aggState]bool)
	g.groups.Range(func(ref int32) {
		for _, a := range g.groups.At(ref).aggs {
			if !finite(a.total()) {
				stale[a] = true
				a.setTotal(0)
			}
		}
	})
	if len(stale) == 0 {
		return
	}
	g.input.Scan(func(t tuple.Tuple) bool {
		if ref := g.groups.FindRow(t, g.groupCols); ref != 0 {
			for _, a := range g.groups.At(ref).aggs {
				if stale[a] {
					a.fold(a.arg(t).AsFloat(), 1)
				}
			}
		}
		return true
	})
}

// SaveState implements checkpoint.Snapshotter: clock and counters, each
// value's W1 tuples in arrival order with their in-answer flags and the
// positions of the answer (the list's suffix), each value's W2 expiration
// times, then both expiration calendars.
func (n *Negate) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(n.clock)
	enc.Varint(int64(n.size[0]))
	enc.Varint(n.prematureRetractions)
	enc.Varint(n.touched)
	hasW1 := func(s *negSlot) bool { return s.w[0].n > 0 }
	n.slots.Save(enc, hasW1, nil, func(s *negSlot) {
		enc.Uvarint(uint64(s.w[0].n))
		for ref := s.w[0].head; ref != 0; ref = n.next(arrivals, ref) {
			enc.Tuple(n.ents.At(ref).t)
			enc.Bool(n.ents.At(ref).inAns)
		}
		enc.Uvarint(uint64(s.nAns))
		for i := s.w[0].n - s.nAns; i < s.w[0].n; i++ {
			enc.Uvarint(uint64(i))
		}
	})
	n.slots.Save(enc, func(s *negSlot) bool { return s.w[1].n > 0 }, hasW1, func(s *negSlot) {
		enc.Uvarint(uint64(s.w[1].n))
		for ref := s.w[1].head; ref != 0; ref = n.next(arrivals, ref) {
			enc.Varint(n.ents.At(ref).t.Exp)
		}
	})
	return n.saveCalendars(enc)
}

// LoadState implements checkpoint.Snapshotter. The answer a section names is
// kept, since the view downstream holds it. Sections written before answers
// were arrival-order suffixes can name another subset — negation admitted
// W1 twins with equal TS out of arrival order — so the members are moved
// behind the other W1 tuples of their value, each group in its saved order,
// and the answer is the suffix again.
func (n *Negate) LoadState(dec *checkpoint.Decoder) error {
	n.clock = dec.Varint()
	dec.Varint() // the W1 count, which the lists hold
	n.prematureRetractions = dec.Varint()
	n.touched = dec.Varint()
	n.slots = statebuf.Table[negSlot]{}
	n.resetEntries()
	var refs []int32
	err := n.slots.Load(dec, func(s *negSlot, _ bool) error {
		refs = refs[:0]
		ne := dec.Count()
		for j := 0; j < ne && dec.Err() == nil; j++ {
			ref, e := n.ents.Alloc()
			*e = qEntry{t: dec.Tuple()}
			dec.Bool() // the member positions below say the same
			refs = append(refs, ref)
		}
		nm := dec.Count()
		for j := 0; j < nm && dec.Err() == nil; j++ {
			at := dec.Uvarint()
			if dec.Err() != nil {
				break
			}
			if at >= uint64(len(refs)) {
				return fmt.Errorf("%w: negate member index %d out of range", checkpoint.ErrCorrupt, at)
			}
			n.ents.At(refs[at]).inAns = true
		}
		for _, members := range []bool{false, true} {
			for _, ref := range refs {
				if e := n.ents.At(ref); e.inAns == members {
					n.push(&s.w[0], ref)
					if members && s.nAns == 0 {
						s.ans = ref
					}
					if members {
						s.nAns++
					}
				}
			}
		}
		n.size[0] += len(refs)
		return nil
	})
	if err == nil {
		err = n.slots.Load(dec, func(s *negSlot, _ bool) error {
			ne := dec.Count()
			for j := 0; j < ne && dec.Err() == nil; j++ {
				ref, e := n.ents.Alloc()
				*e = qEntry{t: tuple.Tuple{Exp: dec.Varint()}, side: 1}
				n.push(&s.w[1], ref)
				n.size[1]++
			}
			return nil
		})
	}
	if err != nil {
		return err
	}
	n.slots.Range(func(slot int32) {
		for _, l := range n.slots.At(slot).w {
			for ref := l.head; ref != 0; ref = n.next(arrivals, ref) {
				n.ents.At(ref).slot = slot
			}
		}
	})
	cols := [2][]int{n.keyCols, n.rightCols}
	return n.loadCalendars(dec, func(side int, t tuple.Tuple) int32 { return n.slots.FindRow(t, cols[side]) })
}

// SaveState implements checkpoint.Snapshotter: clock and counters, both
// sides' supports value by value in arrival order (numbered globally in write
// order), the partner links as number pairs, then both expiration calendars.
// Partners sit on opposite sides and every left support is written first, so
// a pair is a left support's number, then its partner's.
func (x *Intersect) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(x.clock)
	enc.Varint(int64(x.size[0]))
	enc.Varint(int64(x.size[1]))
	enc.Varint(x.touched)
	var flat []int32
	for side := range 2 {
		has := func(s *isectSlot) bool { return s.sup[side].n > 0 }
		before := func(s *isectSlot) bool { return side == 1 && s.sup[0].n > 0 }
		x.slots.Save(enc, has, before, func(s *isectSlot) {
			enc.Uvarint(uint64(s.sup[side].n))
			for ref := s.sup[side].head; ref != 0; ref = x.next(arrivals, ref) {
				flat = append(flat, ref)
				enc.Tuple(x.ents.At(ref).t)
			}
		})
	}
	var last int32
	for _, ref := range flat {
		last = max(last, ref)
	}
	ids := make([]int, last+1) // right supports' numbers, by reference
	for i, ref := range flat[x.size[0]:] {
		ids[ref] = x.size[0] + i
	}
	var pairs int
	for _, ref := range flat[:x.size[0]] {
		if x.ents.At(ref).mate != 0 {
			pairs++
		}
	}
	enc.Uvarint(uint64(pairs))
	for i, ref := range flat[:x.size[0]] {
		if m := x.ents.At(ref).mate; m != 0 {
			enc.Uvarint(uint64(i))
			enc.Uvarint(uint64(ids[m]))
		}
	}
	return x.saveCalendars(enc)
}

// LoadState implements checkpoint.Snapshotter: supports are renumbered in
// arrival order as read, and the unpaired ones parked.
func (x *Intersect) LoadState(dec *checkpoint.Decoder) error {
	x.clock = dec.Varint()
	dec.Varint() // both sizes, which the lists hold
	dec.Varint()
	touched := dec.Varint()
	x.slots = statebuf.Table[isectSlot]{}
	x.resetEntries()
	x.seq = 0
	var flat []int32
	for side := range 2 {
		err := x.slots.Load(dec, func(s *isectSlot, _ bool) error {
			ne := dec.Count()
			for j := 0; j < ne && dec.Err() == nil; j++ {
				ref, e := x.ents.Alloc()
				*e = qEntry{t: dec.Tuple(), side: uint8(side), seq: x.seq}
				x.seq++
				x.push(&s.sup[side], ref)
				x.size[side]++
				flat = append(flat, ref)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	np := dec.Count()
	for i := 0; i < np && dec.Err() == nil; i++ {
		a, b := dec.Uvarint(), dec.Uvarint()
		if dec.Err() != nil {
			break
		}
		if a >= uint64(len(flat)) || b >= uint64(len(flat)) || a == b {
			return fmt.Errorf("%w: intersect partner indexes (%d,%d) out of range", checkpoint.ErrCorrupt, a, b)
		}
		ea, eb := x.ents.At(flat[a]), x.ents.At(flat[b])
		if ea.side == eb.side || ea.mate != 0 || eb.mate != 0 {
			return fmt.Errorf("%w: intersect partner indexes (%d,%d) pair supports twice or on one side", checkpoint.ErrCorrupt, a, b)
		}
		ea.mate, eb.mate = flat[b], flat[a]
	}
	if err := dec.Err(); err != nil {
		return err
	}
	x.slots.Range(func(slot int32) {
		s := x.slots.At(slot)
		for side := range 2 {
			for ref := s.sup[side].head; ref != 0; ref = x.next(arrivals, ref) {
				x.ents.At(ref).slot = slot
				if x.ents.At(ref).mate == 0 {
					x.park(&s.free[side], ref)
				}
			}
		}
	})
	x.touched = touched // parking counted visits
	return x.loadCalendars(dec, func(_ int, t tuple.Tuple) int32 { return x.slots.FindRow(t, x.allCols) })
}

// SaveState implements checkpoint.Snapshotter: counters, then the NT-mode
// retraction log when the plan enabled it.
func (j *NRRJoin) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(int64(j.size))
	enc.Varint(j.touched)
	enc.Bool(j.logAll)
	if j.logAll {
		j.emitted.Save(enc, nil, nil, func(recs *[]emitRecord) {
			enc.Uvarint(uint64(len(*recs)))
			for _, r := range *recs {
				enc.Varint(r.exp)
				enc.Tuples(r.results)
			}
		})
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (j *NRRJoin) LoadState(dec *checkpoint.Decoder) error {
	j.size = int(dec.Varint())
	j.touched = dec.Varint()
	hasLog := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasLog != j.logAll {
		return fmt.Errorf("%w: nrr-join retraction-log flag disagrees with plan", checkpoint.ErrCorrupt)
	}
	if !hasLog {
		return nil
	}
	j.emitted = statebuf.Table[[]emitRecord]{}
	return j.emitted.Load(dec, func(recs *[]emitRecord, _ bool) error {
		nr := dec.Count()
		for r := 0; r < nr && dec.Err() == nil; r++ {
			*recs = append(*recs, emitRecord{exp: dec.Varint(), results: dec.Tuples()})
		}
		return nil
	})
}

// SaveState implements checkpoint.Snapshotter: clock and counter, then the
// stored window side (the table itself is serialized once, engine-wide).
func (j *RelJoin) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(j.clock)
	enc.Varint(j.touched)
	return j.state.SaveState(enc)
}

// LoadState implements checkpoint.Snapshotter.
func (j *RelJoin) LoadState(dec *checkpoint.Decoder) error {
	j.clock = dec.Varint()
	j.touched = dec.Varint()
	return j.state.LoadState(dec)
}
