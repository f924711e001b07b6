package operator

import (
	"fmt"

	"repro/internal/tuple"
)

// Columnar kernels for the stateful tail: group-by and the literature
// duplicate elimination (Distinct). These operators keep row-form state —
// buffers and keyed tables — so the kernels' job is to keep the run
// column-major across the operator boundary while touching state no more
// than the row path would:
//
//   - Keys derive straight from the typed column vectors (tuple.ColBatch.Key:
//     interned-id comparison for strings, no row render), and where the state
//     buffer accepts caller digests the key is hashed exactly once per row and
//     shared between inserts (statebuf.HashedBuffer).
//   - Rows are materialized only where state stores them, with value slices
//     carved from a per-operator arena. Stored rows alias freely into
//     representatives and downstream emissions — the row path's sharing
//     discipline — so the kernels never recycle them; slab reclamation
//     happens when window churn drains a slab's rows. Removal patterns are
//     the exception: Remove retains nothing, so their slices go back to the
//     arena immediately.
//   - Emissions (replacement rows and the retractions of removed tuples) are
//     copied column-major into the output batch in exactly the row path's
//     order, so downstream kernels and the result view see an identical
//     stream.
//
// Every kernel first folds in the operator's own Advance emissions, mirroring
// ProcessBatch: expiration runs once per run, ahead of the arrivals.

// appendEmissions copies row-form emissions onto the output batch.
func appendEmissions(out *tuple.ColBatch, ts []tuple.Tuple, op string, intern *tuple.Interner) error {
	for _, t := range ts {
		if !out.AppendRow(t, intern) {
			return fmt.Errorf("%s: emission %v does not fit the columnar result layout", op, t)
		}
	}
	return nil
}

// ProcessCols is the columnar group-by kernel. Group keys come from the
// column vectors and are hashed once, for the group lookup and the input
// store's insert alike; aggregate updates read values from the vectors
// (aggState.addValue) — no per-tuple keyValsOf slice, no row render on the
// hot path. (A per-run scratch cache of key→group was tried and reverted: it
// costs the same hash work per probe as the persistent table, and its
// clear-and-refill cycle churns bucket storage every run.) Each arrival still
// emits its replacement row (the row path's per-arrival contract), but the
// emission reuses a per-group scratch slice and is copied column-major.
func (g *GroupBy) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 {
		return badSide("groupby", side)
	}
	adv, err := g.Advance(now)
	if err != nil {
		return err
	}
	if err := appendEmissions(out, adv, "groupby", intern); err != nil {
		return err
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		if in.NegAt(i) {
			// Retraction: materialize the removal pattern, drive the row-path
			// removal, and copy its emissions out. The pattern is not retained
			// by Remove or the aggregate updates, so its slice goes back to
			// the arena.
			pat := in.RowTuple(i, &g.colArena, intern)
			if g.input == nil || !g.input.Remove(pat) {
				g.colArena.Recycle(pat.Vals)
				continue
			}
			g.colEmit.Reset()
			g.applyRemoval(pat, now, &g.colEmit)
			g.colArena.Recycle(pat.Vals)
			if err := appendEmissions(out, g.colEmit.ts, "groupby", intern); err != nil {
				return err
			}
			continue
		}
		k := in.Key(i, g.groupCols, intern)
		h := k.Hash64()
		if g.input != nil {
			row := in.RowTuple(i, &g.colArena, intern)
			if g.hashedIn != nil {
				g.hashedIn.InsertHashed(h, row)
			} else {
				g.input.Insert(row)
			}
		}
		ref, fresh := g.groups.UpsertHashed(h, k)
		gs := g.groups.At(ref)
		if fresh {
			g.open(gs, func(c int) tuple.Value { return in.ValueAt(i, c, intern) })
		}
		for _, a := range gs.aggs {
			if a.spec.Kind == Count {
				a.addValue(tuple.Value{})
			} else {
				a.addValue(in.ValueAt(i, a.spec.Col, intern))
			}
		}
		if !out.AppendRow(g.emitInto(gs, now), intern) {
			return fmt.Errorf("groupby: replacement row for group %v does not fit the columnar result layout", gs.keyVals)
		}
	}
	return nil
}

// emitInto is the kernel's emit(): the replacement row reuses the group's
// scratch slice, which is safe only because the kernel copies the emission
// column-major into the output batch immediately — the sole retainer is
// gs.last, which the next emission for the group is entitled to replace. The
// row path's emit() cannot reuse a slice: its emissions travel downstream by
// reference, so each carves slots of its own from the value block.
func (g *GroupBy) emitInto(gs *groupState, now int64) tuple.Tuple {
	w := len(gs.keyVals) + len(gs.aggs)
	vals := gs.colVals
	if cap(vals) < w {
		vals = make([]tuple.Value, 0, w)
	}
	vals = vals[:0]
	vals = append(vals, gs.keyVals...)
	for _, a := range gs.aggs {
		vals = append(vals, a.value())
	}
	gs.colVals = vals
	r := tuple.Tuple{TS: now, Exp: tuple.NeverExpires, Vals: vals}
	gs.last = r
	return r
}

// ProcessCols is the columnar kernel for the literature duplicate-elimination
// operator. The hot path — a value that already has a representative — costs
// one key derivation from the vectors and one state-buffer insert (digest
// shared when the buffer is hashed), with the stored row carved from the
// arena. New representatives and retractions run the row-path bodies and
// copy their emissions column-major.
func (d *Distinct) ProcessCols(side int, in *tuple.ColBatch, now int64, out *tuple.ColBatch, intern *tuple.Interner) error {
	if side != 0 {
		return badSide("distinct", side)
	}
	adv, err := d.Advance(now)
	if err != nil {
		return err
	}
	if err := appendEmissions(out, adv, "distinct", intern); err != nil {
		return err
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		k := in.Key(i, d.allCols, intern)
		if in.NegAt(i) {
			pat := in.RowTuple(i, &d.colArena, intern)
			d.colEmit.Reset()
			d.processNegative(d.reps.Find(k), pat, now, &d.colEmit)
			d.colArena.Recycle(pat.Vals)
			if err := appendEmissions(out, d.colEmit.ts, "distinct", intern); err != nil {
				return err
			}
			continue
		}
		row := in.RowTuple(i, &d.colArena, intern)
		h := k.Hash64()
		if d.hashedIn != nil {
			d.hashedIn.InsertHashed(h, row)
		} else {
			d.input.Insert(row)
		}
		if ref, fresh := d.reps.UpsertHashed(h, k); fresh {
			if rep := d.represent(ref, row, now); !out.AppendRow(rep, intern) {
				return fmt.Errorf("distinct: representative %v does not fit the columnar result layout", rep)
			}
		}
	}
	return nil
}
