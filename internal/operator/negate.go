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
// The implementation generalizes the paper's event rules ("append the new
// arrival when v1 > v2"; "delete the oldest on a W2 arrival"; "append the
// youngest on a W2 expiration") into an invariant repaired after every
// event: per value, exactly max(v1−v2, 0) live W1-tuples are marked
// in-answer; members are retracted oldest-first and admitted youngest-first.
// The repair also covers the corner case the event rules leave implicit —
// a W1 tuple that is not in the answer expiring and shrinking the quota.
//
// Per Section 5.4.1 the multiplicity counters support fast (here: hashed)
// lookup; both windows' tuples are tracked with eager expiration calendars.
// Calendar entries retracted early are left in place and skipped when they
// fire, so twins (equal values, different expirations) never confuse the
// schedule.
type Negate struct {
	schema     *tuple.Schema
	keyCols    []int
	rightCols  []int
	slots      statebuf.Table[negSlot]
	w1idx      statebuf.Buffer
	w2idx      statebuf.Buffer
	w1size     int
	w2size     int // total live W2 multiplicities, maintained incrementally
	clock      int64
	timeExpiry bool
	negOnExp   bool
	// prematureRetractions counts answers killed by negative tuples — the
	// signal that drives the STR storage choice in Section 5.3.2.
	prematureRetractions int64
	touched              int64
	// colArena carves the value slices of rows the columnar kernel
	// materializes; colEmit stages row-path emissions it copies column-major
	// (colstateful.go).
	colArena tuple.ValueArena
	colEmit  Emit
	// rowFed flips permanently once any row-path batch reaches the operator.
	// Until then every stored W1 row is arena-carved and exclusively owned,
	// so NT-mode removals (no calendars retaining the tuple) can recycle the
	// row immediately; after a row-path batch, stored rows may be caller-owned
	// or referenced by downstream emissions, and recycling must stop for good.
	rowFed bool
	// advWave numbers the expiration waves; a slot whose wave equals it is
	// already in advOrder, the wave's reusable list of values touched. advOut
	// is the wave's output: what Advance returns is valid until the next
	// Advance.
	advWave  uint64
	advOrder []int32
	advOut   Emit
	// entries/groupFree recycle the per-stored-tuple entry records and the
	// per-value groups through window churn, so steady-state W1 traffic
	// costs one page allocation per page of stored tuples instead of one per
	// tuple.
	entries   statebuf.Slab[negEntry]
	groupFree []*negGroup
}

// negSlot is one value's state: its W1 tuples and its live W2 expiration
// times (the value's W2 multiplicity is their count). A slot holding neither
// is deleted.
type negSlot struct {
	w1   *negGroup
	w2   []int64
	wave uint64 // the last expiration wave that touched the value (see advWave)
}

// negEntry is one stored W1 tuple. Entries are only ever referenced from
// their group's entries/members slices (emissions copy the tuple by value), so
// a dropped entry goes back to the slab at once.
type negEntry struct {
	t     tuple.Tuple
	inAns bool
	ref   int32 // the entry's slab reference
}

// newEntry stores a W1 tuple in an entry from the slab.
func (n *Negate) newEntry(t tuple.Tuple, inAns bool) *negEntry {
	ref, e := n.entries.Alloc()
	*e = negEntry{t: t, inAns: inAns, ref: ref}
	return e
}

// negGroup tracks one value's W1 tuples plus the subset currently in the
// answer, so the common no-op repair (quota already satisfied) costs O(1)
// and retractions touch only the members — essential when skewed traffic
// concentrates on a hot value whose entry list grows with the window.
type negGroup struct {
	entries []*negEntry
	members []*negEntry // in-answer subset
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
	return &Negate{
		schema:     cfg.Left,
		keyCols:    append([]int(nil), cfg.LeftCols...),
		rightCols:  append([]int(nil), cfg.RightCols...),
		w1idx:      expiryCalendar(cfg.ListCalendars, cfg.Partitions, cfg.Horizon),
		w2idx:      expiryCalendar(cfg.ListCalendars, cfg.Partitions, cfg.Horizon),
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry,
		negOnExp:   cfg.NegativeOnExpiry,
	}, nil
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
	n.rowFed = true
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

// processOne handles one element of a run; the caller has already run
// Advance for now.
func (n *Negate) processOne(side int, t tuple.Tuple, now int64, out *Emit) {
	cols := n.keyCols
	if side == 1 {
		cols = n.rightCols
	}
	ref, _ := n.slots.UpsertRow(t, cols)
	n.processSlot(side, ref, t, now, out)
}

// processSlot applies one event to its value's slot — looked up by row on the
// row path, by the key the columnar kernel derives from the column vectors —
// and deletes the slot if the event emptied it.
func (n *Negate) processSlot(side int, ref int32, t tuple.Tuple, now int64, out *Emit) {
	s := n.slots.At(ref)
	switch {
	case side == 0 && !t.Neg:
		if s.w1 == nil {
			if l := len(n.groupFree); l > 0 {
				s.w1 = n.groupFree[l-1]
				n.groupFree = n.groupFree[:l-1]
			} else {
				s.w1 = &negGroup{}
			}
		}
		s.w1.entries = append(s.w1.entries, n.newEntry(t, false))
		n.w1size++
		if n.timeExpiry {
			n.w1idx.Insert(t)
		}
		n.repairGroup(s.w1, len(s.w2), now, out)
	case side == 0 && t.Neg:
		n.retractW1(s, t, now, out)
	case side == 1 && !t.Neg:
		s.w2 = append(s.w2, t.Exp)
		n.w2size++
		if n.timeExpiry {
			n.w2idx.Insert(t)
		}
		n.repairGroup(s.w1, len(s.w2), now, out)
	default: // side == 1, negative
		if n.removeW2(s, t.Exp) {
			// The calendar entry stays and is skipped when it fires.
			n.repairGroup(s.w1, len(s.w2), now, out)
		}
	}
	n.tidy(ref)
}

// tidy deletes a slot that holds neither W1 tuples nor W2 multiplicities.
func (n *Negate) tidy(ref int32) {
	if s := n.slots.At(ref); s.w1 == nil && len(s.w2) == 0 {
		n.slots.Delete(ref)
	}
}

// removeW2 drops one live W2 multiplicity, preferring the exact expiration
// time the retraction names (negatives carry the original Exp).
func (n *Negate) removeW2(s *negSlot, exp int64) bool {
	if len(s.w2) == 0 {
		return false
	}
	at := 0 // retraction of an unknown twin: drop any copy
	for i, e := range s.w2 {
		n.touched++
		if e == exp {
			at = i
			break
		}
	}
	s.w2 = append(s.w2[:at], s.w2[at+1:]...)
	n.w2size--
	return true
}

// retractW1 handles a negative tuple on the left input: one matching stored
// tuple is removed, preferring one that is not currently in the answer (so
// no retraction needs to propagate); the quota repair handles the rest. The
// calendar entry is left to fire as a no-op.
func (n *Negate) retractW1(slot *negSlot, t tuple.Tuple, now int64, out *Emit) {
	g := slot.w1
	if g == nil {
		return
	}
	entries := g.entries
	// Prefer exact expiration matches, then entries outside the answer.
	score := func(e *negEntry) int {
		s := 0
		if e.t.Exp == t.Exp {
			s += 2
		}
		if !e.inAns {
			s++
		}
		return s
	}
	victim := -1
	for i, e := range entries {
		n.touched++
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
	if e.inAns {
		out.Append(e.t.Negative(now))
		n.prematureRetractions++
	}
	n.dropW1(slot, victim)
	n.repairGroup(slot.w1, len(slot.w2), now, out)
}

func (n *Negate) dropW1(s *negSlot, i int) {
	g := s.w1
	e := g.entries[i]
	if e.inAns {
		g.dropMember(e)
	}
	g.entries = append(g.entries[:i], g.entries[i+1:]...)
	// Pure-columnar NT mode: every stored row was carved from colArena and no
	// calendar retains it, so the dropped row's slice is exclusively ours —
	// hand it back for the next materialization. Any emission referencing it
	// (the retraction staged just before this drop) is copied column-major
	// before the kernel materializes another row, so the recycled slice cannot
	// be overwritten while still referenced.
	if !n.rowFed && !n.timeExpiry {
		n.colArena.Recycle(e.t.Vals)
	}
	n.entries.Release(e.ref)
	*e = negEntry{}
	if len(g.entries) == 0 {
		s.w1 = nil
		g.members = g.members[:0]
		n.groupFree = append(n.groupFree, g)
	}
	n.w1size--
}

func (g *negGroup) dropMember(e *negEntry) {
	for i, m := range g.members {
		if m == e {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return
		}
	}
}

// repairGroup enforces the Equation 1 invariant for one value: exactly
// max(v1 − v2, 0) live W1-tuples in the answer, given its W1 group and W2
// multiplicity.
func (n *Negate) repairGroup(g *negGroup, w2n int, now int64, out *Emit) {
	if g == nil {
		return
	}
	entries := g.entries
	target := len(entries) - w2n
	if target < 0 {
		target = 0
	}
	cur := len(g.members)
	if cur == target {
		return // quota already satisfied: O(1) fast path
	}
	// Too many: retract oldest members first (the paper deletes the oldest
	// on a W2 arrival). Only the member subset is touched.
	for cur > target {
		oldest := 0
		for i := 1; i < len(g.members); i++ {
			n.touched++
			if g.members[i].t.TS < g.members[oldest].t.TS {
				oldest = i
			}
		}
		e := g.members[oldest]
		g.members = append(g.members[:oldest], g.members[oldest+1:]...)
		e.inAns = false
		out.Append(e.t.Negative(now))
		n.prematureRetractions++
		cur--
	}
	// Too few: admit youngest non-members first (the paper appends the new
	// arrival / the youngest on a W2 expiration). Entries sit in arrival
	// order, so scanning from the tail finds the youngest quickly.
	for i := len(entries) - 1; cur < target && i >= 0; i-- {
		n.touched++
		e := entries[i]
		if e.inAns {
			continue
		}
		e.inAns = true
		g.members = append(g.members, e)
		r := e.t
		r.TS = now
		out.Append(r)
		cur++
	}
}

// Advance expires both inputs eagerly: W1 expirations shrink quotas (an
// in-answer copy leaves the result via its own exp downstream); W2
// expirations grow quotas and may re-admit live W1 tuples.
func (n *Negate) Advance(now int64) ([]tuple.Tuple, error) {
	if !n.timeExpiry || now <= n.clock {
		return nil, nil
	}
	n.clock = now
	out := &n.advOut
	out.Reset()
	n.advWave++
	n.advOrder = n.advOrder[:0]
	note := func(ref int32, s *negSlot) {
		if s.wave != n.advWave {
			s.wave = n.advWave
			n.advOrder = append(n.advOrder, ref)
		}
	}

	for _, t := range n.w1idx.ExpireUpTo(now) {
		ref := n.slots.FindRow(t, n.keyCols)
		if ref == 0 || n.slots.At(ref).w1 == nil {
			continue
		}
		s := n.slots.At(ref)
		entries := s.w1.entries
		// Remove the entry the calendar fired for: the one with this Exp and
		// TS, which sits near the head of its group because entries are in
		// arrival order. If a retraction took it, remove a value twin with the
		// same Exp instead, preferring one in the answer (it leaves the result
		// via its own exp — no retraction, unless NegativeOnExpiry asks for
		// one); the twin's own calendar entry then fires as a no-op.
		victim := -1
		for i, e := range entries {
			n.touched++
			if e.t.Exp == t.Exp && e.t.TS == t.TS && e.t.SameVals(t) {
				victim = i
				break
			}
		}
		if victim < 0 {
			for i, e := range entries {
				n.touched++
				if e.t.Exp != t.Exp || !e.t.SameVals(t) {
					continue
				}
				if victim < 0 || e.inAns {
					victim = i
				}
				if e.inAns {
					break
				}
			}
		}
		if victim >= 0 {
			if n.negOnExp && entries[victim].inAns {
				out.Append(entries[victim].t.Negative(now))
			}
			n.dropW1(s, victim)
			note(ref, s)
		}
	}
	for _, t := range n.w2idx.ExpireUpTo(now) {
		ref := n.slots.FindRow(t, n.rightCols)
		if ref == 0 {
			continue
		}
		s := n.slots.At(ref)
		for i, e := range s.w2 {
			n.touched++
			if e == t.Exp {
				s.w2 = append(s.w2[:i], s.w2[i+1:]...)
				n.w2size--
				note(ref, s)
				break
			}
		}
	}
	if len(n.advOrder) > 1 {
		n.slots.SortByKey(n.advOrder)
	}
	// Emptied slots are deleted only after the repairs: nothing in the wave
	// allocates a slot, so every noted reference stays valid until then.
	for _, ref := range n.advOrder {
		s := n.slots.At(ref)
		n.repairGroup(s.w1, len(s.w2), now, out)
		n.tidy(ref)
	}
	return out.ts, nil
}

// StateSize implements Operator: live entries of both windows plus the
// expiration calendars tracking them (which can exceed the live counts while
// retracted entries wait to fire as no-ops) — consistent with the other
// stateful operators' expiry-index accounting. The W2 count is maintained
// incrementally; the engine samples StateSize on a metrics cadence, so it
// must stay O(1) rather than iterate the slots.
func (n *Negate) StateSize() int {
	return n.w1size + n.w2size + n.w1idx.Len() + n.w2idx.Len()
}

// Touched implements Operator.
func (n *Negate) Touched() int64 { return n.touched + n.w1idx.Touched() + n.w2idx.Touched() }
