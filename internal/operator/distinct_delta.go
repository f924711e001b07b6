package operator

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// DistinctDelta is the paper's improved duplicate-elimination operator δ
// (Section 5.3.1), applicable when the input's update pattern is weakest or
// weak non-monotonic — i.e. no premature expirations, so negative tuples
// never arrive. Instead of storing the whole input, δ stores only the output
// plus, per distinct value, the single longest-lived duplicate seen since the
// current representative ("auxiliary output state"). When a representative
// expires, the auxiliary tuple — if still live — is promoted and appended to
// the output stream without ever touching (or storing) the input.
//
// Space is therefore at most twice the output size, and both insertion and
// expiration avoid input-buffer scans; the experiments (Query 2, Query 4)
// measure exactly this advantage over Distinct.
//
// δ owns every value it keeps and emits: a fresh representative's values are
// copied into δ's own value block, and an auxiliary shares its
// representative's values unless the two differ bit for bit (1 and 1.0, +0
// and −0, two NaN payloads), when it keeps a copy of its own. So δ never
// retains a value slice it was handed, and the operator feeding it may hand
// it borrowed ones (Project.SetBorrow).
type DistinctDelta struct {
	schema *tuple.Schema
	slots  statebuf.Table[deltaSlot]
	naux   int // slots holding an auxiliary
	// expIdx schedules representative expirations eagerly.
	expIdx  statebuf.Buffer
	allCols []int
	clock   int64
	// block is the unused tail of the value block kept values are copied to.
	block valueBlock
	// advOut is the expiration wave's output: what Advance returns is valid
	// until the next Advance.
	advOut Emit
}

// deltaSlot is one value's state: its representative and, when one has
// arrived since, the longest-lived duplicate outliving it (aux.Vals is nil
// while there is none). aux.Vals is rep.Vals itself unless the duplicate's
// values differ from the representative's bit for bit.
type deltaSlot struct{ rep, aux tuple.Tuple }

// NewDistinctDelta builds a δ operator; horizon bounds tuple lifetimes (the
// window size), sizing the expiration calendar of partitions buckets
// (default 10).
func NewDistinctDelta(schema *tuple.Schema, horizon int64, partitions int) *DistinctDelta {
	return &DistinctDelta{
		schema:  schema,
		expIdx:  statebuf.NewPartitioned(partitions, horizon, true),
		allCols: allColumns(schema.Len()),
		clock:   -1,
	}
}

// Class implements Operator.
func (d *DistinctDelta) Class() core.OpClass { return core.OpDistinct }

// Schema implements Operator.
func (d *DistinctDelta) Schema() *tuple.Schema { return d.schema }

// ProcessBatch implements Operator: representative expiration runs once per
// run. The planner only places δ on WKS/WK edges (Section 5.4.1); a negative
// tuple here is a planning bug, not a data condition, and fails loudly.
func (d *DistinctDelta) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("distinct-delta", side)
	}
	for i := range in {
		// A leading negative is rejected before the clock advances, so the
		// failed call leaves the operator as it found it wherever the run
		// was cut.
		if in[i].Neg {
			return fmt.Errorf("distinct-delta: negative tuple %v on a %v input (planner must use Distinct for strict inputs)", in[i], core.Strict)
		}
		if i == 0 {
			adv, err := d.Advance(now)
			if err != nil {
				return err
			}
			out.AppendAll(adv)
		}
		d.processOne(in[i], now, out)
	}
	return nil
}

// processOne handles one element of a run; the caller has already run
// Advance for now and rejected negative tuples.
func (d *DistinctDelta) processOne(t tuple.Tuple, now int64, out *Emit) {
	ref, fresh := d.slots.UpsertRow(t, d.allCols)
	if fresh {
		t.Vals = d.own(t.Vals)
		out.Append(d.represent(ref, t, now))
		return
	}
	// A duplicate becomes the value's auxiliary when it outlives the current
	// auxiliary and the representative itself — shorter-lived duplicates can
	// never be needed as replacements.
	if s := d.slots.At(ref); (s.aux.Vals == nil || t.Exp > s.aux.Exp) && t.Exp > s.rep.Exp {
		d.keepAux(s, t)
	}
}

// keepAux makes t the slot's auxiliary. Its values are the representative's
// when they are the same bits, and a copy of t's own otherwise.
func (d *DistinctDelta) keepAux(s *deltaSlot, t tuple.Tuple) {
	if slices.EqualFunc(t.Vals, s.rep.Vals, tuple.Value.Identical) {
		t.Vals = s.rep.Vals
	} else {
		t.Vals = d.own(t.Vals)
	}
	if s.aux.Vals == nil {
		d.naux++
	}
	s.aux = t
}

// own copies vals into δ's value block.
func (d *DistinctDelta) own(vals []tuple.Value) []tuple.Value {
	kept := d.block.carve(len(vals))
	copy(kept, vals)
	return kept
}

// represent makes t, stamped now, the representative in slot ref and
// schedules its expiration.
func (d *DistinctDelta) represent(ref int32, t tuple.Tuple, now int64) tuple.Tuple {
	t.TS = now
	d.slots.At(ref).rep = t
	d.expIdx.Insert(t)
	return t
}

// Advance expires representatives eagerly, promoting live auxiliaries.
func (d *DistinctDelta) Advance(now int64) ([]tuple.Tuple, error) {
	if now <= d.clock {
		return nil, nil
	}
	d.clock = now
	out := &d.advOut
	out.Reset()
	for _, rep := range d.expIdx.ExpireUpTo(now) {
		ref := d.slots.FindRow(rep, d.allCols)
		if ref == 0 {
			continue
		}
		s := d.slots.At(ref)
		if s.rep.Exp != rep.Exp || s.rep.TS != rep.TS {
			continue // stale index entry
		}
		aux := s.aux
		if aux.Vals != nil {
			d.naux--
			s.aux = tuple.Tuple{}
		}
		if aux.Vals != nil && !aux.Expired(now) {
			out.Append(d.represent(ref, aux, now))
		} else {
			d.slots.Delete(ref)
		}
	}
	return out.Tuples(), nil
}

// StateSize implements Operator: output plus auxiliary state — the "at most
// twice the size of the output" bound of Section 5.3.1 — plus the expiry
// calendar entries, so sampling is consistent across the stateful operators.
func (d *DistinctDelta) StateSize() int { return d.slots.Len() + d.naux + d.expIdx.Len() }

// Touched implements Operator.
func (d *DistinctDelta) Touched() int64 { return d.expIdx.Touched() }
