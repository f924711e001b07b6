package operator

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// quotaCore is the state negation and intersection share. Both keep, per
// value, a count quota over two inputs — max(v1 − v2, 0) W1 tuples in the
// answer, min(v1, v2) pairs — and both repair it with O(1) work per event
// because every tuple they store is an entry of one slab, threaded on its
// value's arrival-order list for its side. Under time expiry each entry is
// also filed in its side's calendar, which fires straight to it; an entry a
// retraction removed stays filed as a stale reference until then.
type quotaCore struct {
	ents       statebuf.Slab[qEntry]
	cal        [2]*statebuf.Calendar
	size       [2]int // live entries per side
	clock      int64
	timeExpiry bool
	touched    int64
	// advOut is the expiration wave's output: what Advance returns is valid
	// until the next Advance.
	advOut Emit
}

// qEntry is one stored tuple. What an expiration reads comes first, the
// tuple last.
type qEntry struct {
	side  uint8
	inAns bool  // negation: the W1 tuple is in the answer
	filed bool  // a calendar reference names the entry
	stale bool  // a retraction removed it; its reference has yet to fire
	slot  int32 // the value's slot in the operator's table
	// link threads the entry on its value's lists for its side: arrival
	// order, and for an unpaired intersection support, (Exp, seq) order.
	link [2]qLink
	mate int32  // intersection: the paired support
	seq  uint32 // intersection: arrival number, for ties in Exp
	t    tuple.Tuple
}

type qLink struct{ prev, next int32 }

// The lists an entry can be on.
const (
	arrivals = iota
	unpaired
)

// qList is one list of one value's entries on one side.
type qList struct {
	head, tail int32
	n          int32
}

// init sets the core up: both sides' calendars over its slab — the DIRECT
// baseline's lists, or eager calendars of the given partitions over horizon.
// The core must not move afterwards.
func (c *quotaCore) init(list bool, partitions int, horizon int64, timeExpiry bool) {
	c.clock, c.timeExpiry = -1, timeExpiry
	at := func(ref int32) (*tuple.Tuple, bool) {
		e := c.ents.At(ref)
		return &e.t, !e.stale
	}
	for side := range c.cal {
		if list {
			c.cal[side] = statebuf.NewListCalendar(at)
		} else {
			c.cal[side] = statebuf.NewCalendar(partitions, horizon, at)
		}
	}
}

// add stores t as the newest entry of list l on side, in value slot, and
// files it when time expires state.
func (c *quotaCore) add(side int, slot int32, l *qList, t tuple.Tuple) (int32, *qEntry) {
	ref, e := c.ents.Alloc()
	*e = qEntry{t: t, slot: slot, side: uint8(side), filed: c.timeExpiry}
	c.push(l, ref)
	c.size[side]++
	if e.filed {
		c.cal[side].Insert(ref, &e.t)
	}
	return ref, e
}

// insert links entry ref into l, list k, after entry at (first when at is 0).
func (c *quotaCore) insert(l *qList, k int, at, ref int32) {
	e := &c.ents.At(ref).link[k]
	e.prev = at
	if at != 0 {
		e.next = c.ents.At(at).link[k].next
		c.ents.At(at).link[k].next = ref
	} else {
		e.next, l.head = l.head, ref
	}
	if e.next != 0 {
		c.ents.At(e.next).link[k].prev = ref
	} else {
		l.tail = ref
	}
	l.n++
}

// unlink takes entry ref off l, list k.
func (c *quotaCore) unlink(l *qList, k int, ref int32) {
	e := &c.ents.At(ref).link[k]
	if e.prev != 0 {
		c.ents.At(e.prev).link[k].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != 0 {
		c.ents.At(e.next).link[k].prev = e.prev
	} else {
		l.tail = e.prev
	}
	*e = qLink{}
	l.n--
}

// push appends entry ref to its arrival-order list l.
func (c *quotaCore) push(l *qList, ref int32) { c.insert(l, arrivals, l.tail, ref) }

// next is the entry after ref on list k.
func (c *quotaCore) next(k int, ref int32) int32 { return c.ents.At(ref).link[k].next }

// gone reports whether a retraction names a tuple that has expired already:
// under time expiry every tuple whose Exp has passed fired before the
// retraction came (a negation emitting negative tuples on expiry sends one
// for each answer it expires). It is absorbed; any twin it would fall back
// on is still live.
func (c *quotaCore) gone(t tuple.Tuple, now int64) bool { return c.timeExpiry && t.Expired(now) }

// remove takes an entry off l for good. A retracted entry that is filed
// waits, stale, for its reference to fire; any other goes back to the slab.
func (c *quotaCore) remove(l *qList, ref int32) {
	c.unlink(l, arrivals, ref)
	e := c.ents.At(ref)
	c.size[e.side]--
	if e.filed {
		e.stale = true
		return
	}
	c.release(ref)
}

// release returns an entry to the slab, pinning no tuple; add overwrites
// the rest.
func (c *quotaCore) release(ref int32) {
	c.ents.At(ref).t.Vals = nil
	c.ents.Release(ref)
}

// fired expires side's calendar up to now and returns the live entries that
// fired, in (Exp, TS) order, releasing the stale ones. A fired entry is no
// longer filed: removing it releases it. The slice is valid until the next
// call.
func (c *quotaCore) fired(side int, now int64) []int32 {
	due := c.cal[side].Expire(now)
	live := due[:0]
	for _, ref := range due {
		if e := c.ents.At(ref); e.stale {
			c.release(ref)
		} else {
			e.filed = false
			live = append(live, ref)
		}
	}
	return live
}

// calTouched is both calendars' visits and shifts.
func (c *quotaCore) calTouched() int64 { return c.cal[0].Touched() + c.cal[1].Touched() }

// calLen is the references both calendars hold, stale ones included.
func (c *quotaCore) calLen() int { return c.cal[0].Len() + c.cal[1].Len() }

// resetEntries empties the slab for a checkpoint load.
func (c *quotaCore) resetEntries() {
	c.ents = statebuf.Slab[qEntry]{}
	c.size = [2]int{}
}

// saveCalendars writes both calendar sections.
func (c *quotaCore) saveCalendars(enc *checkpoint.Encoder) error {
	if err := c.cal[0].Save(enc); err != nil {
		return err
	}
	return c.cal[1].Save(enc)
}

// loadCalendars reads both calendar sections once the entries are loaded
// into a fresh slab, and files every tuple under the entry it names: the
// first one of the tuple's value (slot finds it) and Exp that holds the
// tuple's TS and values, or holds no values yet, and that no reference names
// so far. A tuple that names no entry is a stale reference, written while a
// retracted entry waited to fire, and loads as one. Without time expiry
// nothing is filed: sections written while NT intersections filed entries
// they never expired load empty. A tuple without side's key columns cols
// names nothing a run could have filed, and fails the load as corrupt.
func (c *quotaCore) loadCalendars(dec *checkpoint.Decoder, cols [2][]int, slot func(side int, t tuple.Tuple) int32) error {
	type value struct {
		slot int32
		side int
		exp  int64
	}
	byExp := make(map[value][]int32)
	if c.timeExpiry {
		// A fresh slab hands out references 1, 2, … in load order.
		for ref := int32(1); ref <= int32(c.size[0]+c.size[1]); ref++ {
			e := c.ents.At(ref)
			k := value{e.slot, int(e.side), e.t.Exp}
			byExp[k] = append(byExp[k], ref)
		}
	}
	for side := range c.cal {
		var short error
		err := c.cal[side].Load(dec, func(t tuple.Tuple) int32 {
			if !c.timeExpiry || short != nil {
				return 0
			}
			if !t.Covers(cols[side]) {
				short = fmt.Errorf("%w: a calendar row of %d values lacks key columns %v", checkpoint.ErrCorrupt, len(t.Vals), cols[side])
				return 0
			}
			k := value{slot(side, t), side, t.Exp}
			refs := byExp[k]
			for i, ref := range refs {
				if e := c.ents.At(ref); e.t.Vals == nil || e.t.TS == t.TS && e.t.SameVals(t) {
					e.t, e.filed = t, true
					byExp[k] = append(refs[:i], refs[i+1:]...)
					return ref
				}
			}
			ref, e := c.ents.Alloc()
			*e = qEntry{t: t, side: uint8(side), filed: true, stale: true}
			return ref
		})
		if err == nil {
			err = short
		}
		if err != nil {
			return err
		}
	}
	return nil
}
