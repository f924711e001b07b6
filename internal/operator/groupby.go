package operator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// GroupBy incrementally maintains aggregates per group (Section 2.1). Each
// arrival updates its group and emits an updated result tuple for that group;
// each expiration from the (eagerly maintained) input state decrements the
// group and likewise emits an updated result. A newly emitted result is
// understood to replace the previously reported result for the same group —
// which is why group-by output is always weak non-monotonic (Rule 4 of
// Section 5.2) even over strict inputs: retractions arriving on the input are
// absorbed into replacement results rather than forwarded.
//
// When the last live tuple of a group leaves, the group vanishes from the
// answer; the operator signals this with a negative result tuple for the
// group's last reported row. This keeps Definition 1 exact while remaining
// predictable (it happens precisely at a known exp timestamp).
//
// Output schema: the group-by columns followed by one column per aggregate.
// Result tuples never expire by timestamp (Exp = NeverExpires) — their
// lifetime ends on replacement, so the result view keys them by group.
type GroupBy struct {
	schema     *tuple.Schema
	groupCols  []int
	specs      []AggSpec
	input      statebuf.Buffer // nil when the input never expires
	groups     statebuf.Table[groupState]
	clock      int64
	timeExpiry bool
	// hashedIn is the input buffer's digest-taking view when it is hash-keyed
	// on the group columns, so the columnar kernel hashes each row's group key
	// exactly once for both the group lookup and the state insert.
	hashedIn statebuf.HashedBuffer
	// colArena carves retained value slices — group key copies and rows the
	// columnar kernel materializes for input state (colstateful.go).
	colArena tuple.ValueArena
	// colEmit stages row-path emissions the kernel copies column-major.
	colEmit Emit
	// block is the unused tail of the value block replacement rows carve
	// their values from.
	block valueBlock
	// advWave numbers the expiration waves; a group whose wave equals it is
	// already in advOrder, the wave's reusable list of groups touched. advOut
	// is the wave's output: what Advance returns is valid until the next
	// Advance. Steady-state waves allocate only a fresh value block, one in
	// projectBlockRows emissions.
	advWave  uint64
	advOrder []int32
	advOut   Emit
}

type groupState struct {
	keyVals []tuple.Value
	aggs    []*aggState
	last    tuple.Tuple // last emitted result row
	// colVals is the kernel's reusable emission slice (see emitInto).
	colVals []tuple.Value
	// wave is the last expiration wave that touched the group (see advWave).
	wave uint64
}

// GroupByConfig configures a grouped aggregation.
type GroupByConfig struct {
	Input *tuple.Schema
	// GroupCols are the grouping column positions; empty means a single
	// global group (plain aggregation).
	GroupCols []int
	// Aggs are the aggregates to maintain (at least one).
	Aggs []AggSpec
	// InputBuf chooses the input state structure; it is maintained eagerly.
	InputBuf statebuf.Config
	// NoTimeExpiry disables exp-timestamp expiration; the negative-tuple
	// strategy sets it and drives all retirement through retractions.
	NoTimeExpiry bool
	// NoInputStore skips input buffering entirely — for unbounded
	// (monotonic) inputs where tuples never expire and never retract, the
	// Section 3.1 running-aggregate case; only per-group state remains.
	NoInputStore bool
}

// NewGroupBy builds a group-by operator.
func NewGroupBy(cfg GroupByConfig) (*GroupBy, error) {
	if len(cfg.Aggs) == 0 {
		return nil, fmt.Errorf("groupby: at least one aggregate required")
	}
	cols := make([]tuple.Column, 0, len(cfg.GroupCols)+len(cfg.Aggs))
	for _, c := range cfg.GroupCols {
		if c < 0 || c >= cfg.Input.Len() {
			return nil, fmt.Errorf("groupby: group column %d out of range", c)
		}
		cols = append(cols, cfg.Input.Col(c))
	}
	for i, a := range cfg.Aggs {
		if a.Kind != Count && (a.Col < 0 || a.Col >= cfg.Input.Len()) {
			return nil, fmt.Errorf("groupby: aggregate column %d out of range", a.Col)
		}
		kind := tuple.KindFloat
		switch a.Kind {
		case Count:
			kind = tuple.KindInt
		case Min, Max:
			if a.Col >= 0 && a.Col < cfg.Input.Len() {
				kind = cfg.Input.Col(a.Col).Kind
			}
		}
		cols = append(cols, tuple.Column{Name: fmt.Sprintf("agg%d_%s", i, a.Kind), Kind: kind})
	}
	schema, err := tuple.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("groupby: %w", err)
	}
	if cfg.InputBuf.Kind == statebuf.KindHash {
		cfg.InputBuf.KeyCols = cfg.GroupCols
	}
	g := &GroupBy{
		schema:     schema,
		groupCols:  append([]int(nil), cfg.GroupCols...),
		specs:      append([]AggSpec(nil), cfg.Aggs...),
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry && !cfg.NoInputStore,
	}
	if !cfg.NoInputStore {
		g.input = statebuf.New(cfg.InputBuf)
		if hb, ok := g.input.(statebuf.HashedBuffer); ok && equalCols(hb.KeyCols(), g.groupCols) {
			g.hashedIn = hb
		}
	}
	return g, nil
}

// Class implements Operator.
func (g *GroupBy) Class() core.OpClass { return core.OpGroupBy }

// Schema implements Operator.
func (g *GroupBy) Schema() *tuple.Schema { return g.schema }

// ProcessBatch implements Operator: input expiration runs once per run,
// then each arrival updates its group and appends the replacement row into the
// shared buffer.
func (g *GroupBy) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("groupby", side)
	}
	adv, err := g.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		g.processOne(in[i], now, out)
	}
	return nil
}

// processOne handles one element of a run; the caller has already run
// Advance for now.
func (g *GroupBy) processOne(t tuple.Tuple, now int64, out *Emit) {
	if t.Neg {
		if g.input == nil || !g.input.Remove(t) {
			return // retraction of an already-expired tuple
		}
		g.applyRemoval(t, now, out)
		return
	}
	if g.input != nil {
		g.input.Insert(t)
	}
	ref, fresh := g.groups.UpsertRow(t, g.groupCols)
	gs := g.groups.At(ref)
	if fresh {
		g.open(gs, func(c int) tuple.Value { return t.Vals[c] })
	}
	for _, a := range gs.aggs {
		a.add(t)
	}
	out.Append(g.emit(gs, now))
}

// open initializes a new group: its key values, copied from the group
// columns into a retained slice carved from the operator's arena (group
// creation shares slab space with the columnar kernel's materializations
// instead of taking a dedicated allocation), and one empty cell per
// aggregate.
func (g *GroupBy) open(gs *groupState, col func(c int) tuple.Value) {
	gs.keyVals = g.colArena.Alloc(len(g.groupCols))
	for i, c := range g.groupCols {
		gs.keyVals[i] = col(c)
	}
	for _, spec := range g.specs {
		gs.aggs = append(gs.aggs, newAggState(spec))
	}
}

// emit builds and records the replacement result row for a group. Its
// values are carved from the operator's value block: every row gets slots of
// its own that are never written again, so it can travel downstream by
// reference. A block stays alive while any of its rows does, so each live
// group's last row pins at most one block.
func (g *GroupBy) emit(gs *groupState, now int64) tuple.Tuple {
	vals := g.block.carve(len(gs.keyVals) + len(gs.aggs))
	n := copy(vals, gs.keyVals)
	for i, a := range gs.aggs {
		vals[n+i] = a.value()
	}
	r := tuple.Tuple{TS: now, Exp: tuple.NeverExpires, Vals: vals}
	gs.last = r
	return r
}

// applyRemoval decrements a group after an input tuple leaves and appends the
// updated (or retracted) group row.
func (g *GroupBy) applyRemoval(t tuple.Tuple, now int64, out *Emit) {
	ref := g.groups.FindRow(t, g.groupCols)
	if ref == 0 {
		return
	}
	for _, a := range g.groups.At(ref).aggs {
		a.remove(t)
	}
	out.Append(g.report(ref, now))
}

// report returns a changed group's replacement row or, when its last live
// tuple left, the retraction of its last row, deleting the group.
func (g *GroupBy) report(ref int32, now int64) tuple.Tuple {
	gs := g.groups.At(ref)
	if gs.aggs[0].n > 0 {
		return g.emit(gs, now)
	}
	r := gs.last.Negative(now)
	g.groups.Delete(ref)
	return r
}

// Advance expires input state eagerly — aggregate values must stay correct
// even when no new tuples arrive (Section 2.3) — emitting an updated result
// per affected group, in deterministic group order.
func (g *GroupBy) Advance(now int64) ([]tuple.Tuple, error) {
	if !g.timeExpiry || now <= g.clock {
		return nil, nil
	}
	g.clock = now
	expired := g.input.ExpireUpTo(now)
	if len(expired) == 0 {
		return nil, nil
	}
	// Apply all removals first (aggregate subtraction commutes), then emit one
	// replacement row per affected group in deterministic order.
	g.advWave++
	g.advOrder = g.advOrder[:0]
	for _, t := range expired {
		ref := g.groups.FindRow(t, g.groupCols)
		if ref == 0 {
			continue
		}
		gs := g.groups.At(ref)
		if gs.wave != g.advWave {
			gs.wave = g.advWave
			g.advOrder = append(g.advOrder, ref)
		}
		for _, a := range gs.aggs {
			a.remove(t)
		}
	}
	if len(g.advOrder) > 1 {
		g.groups.SortByKey(g.advOrder)
	}
	out := &g.advOut
	out.Reset()
	// Deleting an emptied group frees its slot, but nothing in the wave
	// allocates one, so the references still to come stay valid.
	for _, ref := range g.advOrder {
		out.Append(g.report(ref, now))
	}
	return out.Tuples(), nil
}

// StateSize implements Operator: stored input plus one row per group.
func (g *GroupBy) StateSize() int {
	n := g.groups.Len()
	if g.input != nil {
		n += g.input.Len()
	}
	return n
}

// Touched implements Operator.
func (g *GroupBy) Touched() int64 {
	if g.input == nil {
		return 0
	}
	return g.input.Touched()
}

// GroupCols returns the grouping column positions in the output schema
// (always the leading columns) — the result view keys replacements on them.
func (g *GroupBy) GroupCols() []int { return allColumns(len(g.groupCols)) }
