package operator

import (
	"fmt"

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
type DistinctDelta struct {
	schema *tuple.Schema
	reps   map[tuple.Key]tuple.Tuple
	aux    map[tuple.Key]tuple.Tuple
	// expIdx schedules representative expirations eagerly.
	expIdx  statebuf.Buffer
	allCols []int
	clock   int64
	// colArena carves the value slices of rows the columnar kernel stores
	// (colstateful.go); duplicates materialize nothing.
	colArena tuple.ValueArena
}

// NewDistinctDelta builds a δ operator; horizon bounds tuple lifetimes (the
// window size), sizing the expiration calendar of partitions buckets
// (default 10).
func NewDistinctDelta(schema *tuple.Schema, horizon int64, partitions int) *DistinctDelta {
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	if partitions <= 0 {
		partitions = statebuf.DefaultPartitions
	}
	return &DistinctDelta{
		schema:  schema,
		reps:    make(map[tuple.Key]tuple.Tuple),
		aux:     make(map[tuple.Key]tuple.Tuple),
		expIdx:  statebuf.NewPartitioned(partitions, horizon, true),
		allCols: cols,
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
	k := t.Key(d.allCols)
	if rep, ok := d.reps[k]; ok {
		// Duplicate: remember it only if it outlives the current auxiliary
		// (and the representative itself — shorter-lived duplicates can
		// never be needed as replacements).
		if aux, ok := d.aux[k]; !ok || t.Exp > aux.Exp {
			if t.Exp > rep.Exp {
				d.aux[k] = t
			}
		}
		return
	}
	rep := t
	rep.TS = now
	d.reps[k] = rep
	d.expIdx.Insert(rep)
	out.Append(rep)
}

// Advance expires representatives eagerly, promoting live auxiliaries.
func (d *DistinctDelta) Advance(now int64) ([]tuple.Tuple, error) {
	if now <= d.clock {
		return nil, nil
	}
	d.clock = now
	var out []tuple.Tuple
	for _, rep := range d.expIdx.ExpireUpTo(now) {
		k := rep.Key(d.allCols)
		cur, ok := d.reps[k]
		if !ok || cur.Exp != rep.Exp || cur.TS != rep.TS {
			continue // stale index entry
		}
		delete(d.reps, k)
		aux, ok := d.aux[k]
		delete(d.aux, k)
		if ok && !aux.Expired(now) {
			newRep := aux
			newRep.TS = now
			d.reps[k] = newRep
			d.expIdx.Insert(newRep)
			out = append(out, newRep)
		}
	}
	return out, nil
}

// StateSize implements Operator: output plus auxiliary state — the "at most
// twice the size of the output" bound of Section 5.3.1 — plus the expiry
// calendar entries, so sampling is consistent across the stateful operators.
func (d *DistinctDelta) StateSize() int { return len(d.reps) + len(d.aux) + d.expIdx.Len() }

// Touched implements Operator.
func (d *DistinctDelta) Touched() int64 { return d.expIdx.Touched() }
