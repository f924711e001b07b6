package statebuf

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// Calendar is the expiration calendar of Section 5.3.2 and Figure 7 over
// references its owner allocates: a circular array of partitions, each
// covering a fixed span of expiration time, so expiring touches only the
// partitions that are due. A partition is a run of references, each beside
// its entry's Exp, with a head offset: popping due references moves the
// offset instead of shifting the remainder, and a sorted insert and the due
// check read the run alone, looking an entry up only for a tie in Exp.
// References whose Exp lies beyond the horizon, or never comes, wait in an
// overflow area and move into the calendar as the horizon reaches them.
//
// The calendar also keeps next, a lower bound on the Exp of every reference
// in its circular partitions: while the clock is below it and the overflow
// area is empty, nothing can be due, and Expire skips the walk.
//
// The calendar knows an entry only through at, which returns the tuple whose
// (Exp, TS) places the reference and whether the entry is still live. A
// retraction leaves its reference in place as a stale one; Expire hands it
// back when it fires, or earlier from the overflow area, and the owner
// releases the entry then. So Expire names the very entry that fired: no
// owner has to find a fired tuple again by its values.
//
// PartitionedBuffer files the keyed store's entries in one; negation and
// intersection file their per-side entries in two.
type Calendar struct {
	width int64 // expiration-time span covered by one partition
	// parts[:span] is the circular calendar, parts[span] the overflow area.
	parts  []partition
	span   int
	lowBkt int64 // lowest expiration bucket not yet fully expired
	byExp  bool  // partitions sorted by Exp (eager) vs insertion order (lazy)
	list   bool  // the DIRECT baseline (see NewListCalendar)
	n      int   // references held, stale ones included
	// next is at most the Exp of every reference in parts[:span]. It is
	// derived state: never checkpointed, and rebuilt by the inserts that
	// refill the calendar after reset.
	next int64
	// touched counts references visited by expiration passes and shifted by
	// sorted inserts.
	touched int64
	// fired and due back Expire's work and result across passes.
	fired []filed
	due   []int32
	at    func(ref int32) (t *tuple.Tuple, live bool)
	// refiled, when set, learns which partition a reference moved to from
	// the overflow area (the keyed store re-links it there).
	refiled func(ref int32, slot int)
}

// partition is a run of filed references; refs[:head] have already fired.
type partition struct {
	refs []filed
	head int
}

// filed is one reference and its entry's Exp.
type filed struct {
	exp int64
	ref int32
}

func (p *partition) live() []filed { return p.refs[p.head:] }

// push appends f. A full run whose fired prefix is at least half of it is
// slid down first instead of grown, so a partition that is popped and pushed
// at once stays bounded by its peak live size.
func (p *partition) push(f filed) {
	if len(p.refs) == cap(p.refs) && p.head > 0 && p.head >= len(p.refs)/2 {
		p.refs = p.refs[:copy(p.refs, p.refs[p.head:])]
		p.head = 0
	}
	p.refs = append(p.refs, f)
}

// pop drops the first n live references.
func (p *partition) pop(n int) {
	p.head += n
	if p.head == len(p.refs) {
		p.refs, p.head = p.refs[:0], 0
	}
}

// NewCalendar returns the eager calendar negation and intersection keep per
// input: partitions sorted by expiration, n of them over a rolling horizon,
// typically the window size bounding the state.
func NewCalendar(n int, horizon int64, at func(ref int32) (t *tuple.Tuple, live bool)) *Calendar {
	c := newCalendar(n, horizon, true)
	c.at = at
	return &c
}

// NewListCalendar returns the DIRECT baseline's calendar: one run in
// insertion order that every expiration pass scans whole, as a ListBuffer
// does, and that checkpoints in the ListBuffer section layout.
func NewListCalendar(at func(ref int32) (t *tuple.Tuple, live bool)) *Calendar {
	c := newCalendar(1, math.MaxInt64, false)
	c.at, c.list = at, true
	return &c
}

// newCalendar sizes n partitions (DefaultPartitions when n is not positive)
// over horizon. One extra partition is allocated so that the live bucket span
// never wraps onto itself.
func newCalendar(n int, horizon int64, byExp bool) Calendar {
	if n <= 0 {
		n = DefaultPartitions
	}
	horizon = max(horizon, 1)
	width := max((horizon+int64(n)-1)/int64(n), 1)
	return Calendar{width: width, parts: make([]partition, n+2), span: n + 1, byExp: byExp, next: math.MaxInt64}
}

// Kind names the structure for plan introspection: KindList for the DIRECT
// baseline, KindPartitioned otherwise.
func (c *Calendar) Kind() Kind {
	if c.list {
		return KindList
	}
	return KindPartitioned
}

// Len returns the number of references held, stale ones included.
func (c *Calendar) Len() int { return c.n }

// Touched returns cumulative reference visits and shifts.
func (c *Calendar) Touched() int64 { return c.touched }

func (c *Calendar) bucket(exp int64) int64 { return exp / c.width }

func (c *Calendar) slot(bkt int64) int { return int(bkt % int64(c.span)) }

// slotFor names the partition that holds a reference expiring at exp: the one
// covering exp, the lowest live one when exp is already past due (so the next
// pass returns it), the overflow area when exp lies beyond the horizon or
// never comes. The answer only changes in Expire, which moves what it
// affects, so it also locates a stored reference from its Exp alone.
func (c *Calendar) slotFor(exp int64) int {
	if exp == tuple.NeverExpires {
		return c.span
	}
	bkt := max(c.bucket(exp), c.lowBkt)
	if bkt >= c.lowBkt+int64(c.span) {
		return c.span
	}
	return c.slot(bkt)
}

// sorted reports whether partition slot keeps (Exp, TS) order; the overflow
// area never does.
func (c *Calendar) sorted(slot int) bool { return c.byExp && slot != c.span }

// before reports whether t expires before the entry f files, by (Exp, TS).
func (c *Calendar) before(t *tuple.Tuple, f filed) bool {
	if t.Exp != f.exp {
		return t.Exp < f.exp
	}
	u, _ := c.at(f.ref)
	return t.TS < u.TS
}

// cmp orders filed references by their entries' (Exp, TS).
func (c *Calendar) cmp(a, b filed) int {
	if a.exp != b.exp {
		return cmp.Compare(a.exp, b.exp)
	}
	ta, _ := c.at(a.ref)
	tb, _ := c.at(b.ref)
	return cmp.Compare(ta.TS, tb.TS)
}

// Insert files ref, whose entry holds t, by t's Exp, and returns the
// partition it went to.
func (c *Calendar) Insert(ref int32, t *tuple.Tuple) int {
	c.n++
	return c.place(ref, t)
}

// place puts ref into its partition: at the tail, or at its (Exp, TS)
// position in a sorted partition, after every reference it does not precede.
func (c *Calendar) place(ref int32, t *tuple.Tuple) int {
	slot := c.slotFor(t.Exp)
	if slot != c.span {
		c.next = min(c.next, t.Exp)
	}
	p := &c.parts[slot]
	f := filed{t.Exp, ref}
	p.push(f)
	if live := p.live(); c.sorted(slot) && len(live) > 1 && c.before(t, live[len(live)-2]) {
		// Out of order: binary search for the first reference expiring later.
		i := len(live) - 1
		lo, hi := 0, i
		for lo < hi {
			if mid := (lo + hi) / 2; c.before(t, live[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c.touched += int64(i - lo) // shifted references
		copy(live[lo+1:], live[lo:])
		live[lo] = f
	}
	return slot
}

// Expire removes and returns every reference with Exp <= now, ordered by
// (Exp, TS), visiting only the partitions whose buckets are due plus the
// boundary partition and the overflow area. Stale references come back too
// — those that are due, and those in the overflow area — for the owner to
// release. The slice is valid until the next Expire.
//
// While now is below next and the overflow area is empty, nothing is due:
// Expire then only charges the boundary partition's visits and moves the
// cursor, exactly as the walk would, and returns at once.
func (c *Calendar) Expire(now int64) []int32 {
	hi := c.bucket(now)
	if now < c.next && len(c.parts[c.span].refs) == 0 {
		if hi >= c.lowBkt && hi < c.lowBkt+int64(c.span) {
			switch live := c.parts[c.slot(hi)].live(); {
			case len(live) == 0:
			case c.byExp:
				c.touched++
			default:
				c.touched += int64(len(live))
			}
		}
		c.lowBkt = max(c.lowBkt, hi)
		c.due = c.due[:0]
		return c.due
	}
	due := c.fired[:0]
	// Fully-due buckets: everything in them expires. Occupied buckets all lie
	// in [lowBkt, lowBkt+span), so cap the walk at one full cycle even if time
	// jumped far ahead.
	for bkt := c.lowBkt; bkt < min(hi, c.lowBkt+int64(c.span)); bkt++ {
		p := &c.parts[c.slot(bkt)]
		live := p.live()
		c.touched += int64(len(live))
		due = append(due, live...)
		p.pop(len(live))
	}
	if hi >= c.lowBkt && hi < c.lowBkt+int64(c.span) {
		// Boundary bucket: partially due.
		p := &c.parts[c.slot(hi)]
		switch live := p.live(); {
		case len(live) == 0:
		case c.byExp:
			// Sorted: expired references are a prefix.
			i := 0
			for i < len(live) && live[i].exp <= now {
				i++
			}
			c.touched += int64(i) + 1
			due = append(due, live[:i]...)
			p.pop(i)
		default:
			c.touched += int64(len(live))
			kept := live[:0]
			for _, f := range live {
				if f.exp <= now {
					due = append(due, f)
				} else {
					kept = append(kept, f)
				}
			}
			p.refs = p.refs[:p.head+len(kept)]
			p.pop(0)
		}
	}
	if hi >= c.lowBkt {
		c.lowBkt = hi
		c.next = c.lowestExp(now)
	}
	calendar := len(due)
	due = c.drainOverflow(now, due)
	// A sorted calendar hands its buckets over in order; the lazy one, and
	// the overflow area, need the sort.
	if (!c.byExp || len(due) > calendar) && !slices.IsSortedFunc(due, c.cmp) {
		slices.SortStableFunc(due, c.cmp)
	}
	c.n -= len(due)
	c.fired, c.due = due, c.due[:0]
	for _, f := range due {
		c.due = append(c.due, f.ref)
	}
	return c.due
}

// lowestExp bounds the Exp of every reference left in the circular
// partitions after a pass that examined the lowest bucket: a sorted
// partition's head, or, for a lazy one, its bucket's start and at least
// now+1. Only the boundary bucket can hold a reference clamped below its
// start, and the pass took every due one from there.
func (c *Calendar) lowestExp(now int64) int64 {
	for bkt := c.lowBkt; bkt < c.lowBkt+int64(c.span); bkt++ {
		switch live := c.parts[c.slot(bkt)].live(); {
		case len(live) == 0:
		case c.byExp:
			return live[0].exp
		default:
			return max(bkt*c.width, now+1)
		}
	}
	return math.MaxInt64
}

// drainOverflow moves overflow references that are now within the horizon
// back into the calendar, and hands back the due and the stale ones.
func (c *Calendar) drainOverflow(now int64, due []filed) []filed {
	p := &c.parts[c.span]
	kept := p.refs[:0]
	for _, f := range p.refs {
		c.touched++
		switch t, ok := c.at(f.ref); {
		case !ok || f.exp <= now:
			due = append(due, f)
		case c.slotFor(f.exp) != c.span:
			slot := c.place(f.ref, t)
			if c.refiled != nil {
				c.refiled(f.ref, slot)
			}
		default:
			kept = append(kept, f)
		}
	}
	p.refs = kept
	return due
}

// each calls fn with every reference held, stale ones included, partition by
// partition and the overflow area last, until fn returns false.
func (c *Calendar) each(fn func(ref int32) bool) {
	for pi := range c.parts {
		for _, f := range c.parts[pi].live() {
			if !fn(f.ref) {
				return
			}
		}
	}
}

// reset drops every reference, leaving the cursor alone.
func (c *Calendar) reset() {
	clear(c.parts)
	c.n, c.next = 0, math.MaxInt64
}

// Save writes the calendar's checkpoint section in the layout of the buffer
// kind it stands in for: the cursor (not for the list baseline), the cost
// counter, then the tuple of every reference held in Scan order. Stale
// references are written too: they are what Len counts until they fire.
func (c *Calendar) Save(enc *checkpoint.Encoder) error {
	if !c.list {
		enc.Varint(c.lowBkt)
	}
	enc.Varint(c.touched)
	enc.Uvarint(uint64(c.n))
	c.each(func(ref int32) bool {
		t, _ := c.at(ref)
		enc.Tuple(*t)
		return true
	})
	return enc.Err()
}

// Load reads a section Save wrote, or one a PartitionedBuffer or ListBuffer
// of the same configuration wrote, and files each tuple under the reference
// resolve hands back for it, in the saved order; resolve returns zero for a
// tuple the owner does not keep. The cursor is restored first, so every
// reference lands in the bucket it occupied at save time.
func (c *Calendar) Load(dec *checkpoint.Decoder, resolve func(t tuple.Tuple) int32) error {
	var low int64
	if !c.list {
		low = dec.Varint()
	}
	touched, rows := dec.Varint(), dec.Tuples()
	if err := dec.Err(); err != nil {
		return err
	}
	c.reset()
	c.lowBkt = low
	for _, t := range rows {
		if ref := resolve(t); ref != 0 {
			at, _ := c.at(ref)
			c.Insert(ref, at)
		}
	}
	c.touched = touched
	return nil
}
