package operator

import (
	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Distinct is the duplicate-elimination operator from the literature
// (Section 2.1): it stores both its input and its current output. At all
// times the output contains exactly one tuple per distinct value present in
// the live input. When an output representative expires, the input buffer is
// scanned for the youngest live tuple with the same value, which becomes the
// new representative and is appended to the output stream (Figure 2).
//
// The state structures are injected by the physical planner: a hash-keyed
// input under the negative-tuple strategy (retractions find their tuple
// quickly; TimeExpiry is off because windows retract explicitly), plain
// lists under DIRECT (representative expiration degenerates to sequential
// scans), and calendar indexes under UPA.
//
// On the row path Distinct owns every value it keeps, as δ does: a fresh
// representative's values are copied into Distinct's own value block, and a
// later duplicate is stored with its representative's values, or with a copy
// of its own when the two differ bit for bit (1 and 1.0, +0 and −0, two NaN
// payloads). A negative tuple is matched and never kept. So Distinct never
// retains a value slice it was handed, and the operator feeding it may hand
// it borrowed ones (Project.SetBorrow). The columnar kernel stores rows it
// carves from its own arena.
type Distinct struct {
	schema *tuple.Schema
	input  statebuf.Buffer
	reps   statebuf.Table[tuple.Tuple]
	// expIdx schedules representative expirations.
	expIdx     statebuf.Buffer
	allCols    []int
	clock      int64
	timeExpiry bool
	// trimEvery throttles lazy input-buffer trimming (Section 2.1: "the
	// input buffer can be maintained lazily"); replacement probes skip
	// expired tuples regardless.
	trimEvery int64
	lastTrim  int64
	touched   int64
	// hashedIn is the digest-taking view of the input when it is hash-keyed on
	// all columns, so the columnar kernel hashes each row's key exactly once
	// for both the input insert and the representative lookup (colstateful.go).
	hashedIn statebuf.HashedBuffer
	// colArena carves the value slices of rows the columnar kernel
	// materializes; colEmit stages row-path emissions it copies column-major.
	colArena tuple.ValueArena
	colEmit  Emit
	// block is the unused tail of the value block kept values are copied to.
	block valueBlock
	// cands is the reusable scratch of replacement candidates.
	cands []tuple.Tuple
	// advOut is the expiration wave's output: what Advance returns is valid
	// until the next Advance.
	advOut Emit
}

// DistinctConfig configures the literature duplicate-elimination operator.
type DistinctConfig struct {
	Schema *tuple.Schema
	// InputBuf stores the input (maintained lazily, probed on replacement).
	InputBuf statebuf.Config
	// RepIdx schedules representative expirations (eager).
	RepIdx statebuf.Config
	// TrimEvery throttles lazy input trimming, in time units (default:
	// every 20th of the rep calendar's horizon, mirroring the Section 6.1
	// lazy interval; minimum 1).
	TrimEvery int64
	// TimeExpiry enables expiration by exp timestamps; the negative-tuple
	// strategy turns it off and drives all retirement through retractions.
	TimeExpiry bool
}

// NewDistinct builds the literature duplicate-elimination operator.
func NewDistinct(cfg DistinctConfig) *Distinct {
	cols := allColumns(cfg.Schema.Len())
	if cfg.InputBuf.Kind == statebuf.KindHash {
		cfg.InputBuf.KeyCols = cols
	}
	trimEvery := cfg.TrimEvery
	if trimEvery <= 0 {
		trimEvery = cfg.RepIdx.Horizon / 20
	}
	if trimEvery < 1 {
		trimEvery = 1
	}
	d := &Distinct{
		schema:     cfg.Schema,
		input:      statebuf.New(cfg.InputBuf),
		expIdx:     statebuf.New(cfg.RepIdx),
		allCols:    cols,
		clock:      -1,
		timeExpiry: cfg.TimeExpiry,
		trimEvery:  trimEvery,
		lastTrim:   -1,
	}
	if hb, ok := d.input.(statebuf.HashedBuffer); ok && equalCols(hb.KeyCols(), d.allCols) {
		d.hashedIn = hb
	}
	return d
}

// Class implements Operator.
func (d *Distinct) Class() core.OpClass { return core.OpDistinct }

// Schema implements Operator.
func (d *Distinct) Schema() *tuple.Schema { return d.schema }

// ProcessBatch implements Operator: representative expiration runs once per
// run (Advance no-ops at an unchanged clock), then the per-tuple bodies append
// into the shared buffer.
func (d *Distinct) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("distinct", side)
	}
	adv, err := d.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		d.processOne(in[i], now, out)
	}
	return nil
}

// processOne handles one element of a run; the caller has already run
// Advance for now.
func (d *Distinct) processOne(t tuple.Tuple, now int64, out *Emit) {
	if t.Neg {
		d.processNegative(d.reps.FindRow(t, d.allCols), t, now, out)
		return
	}
	ref, fresh := d.reps.UpsertRow(t, d.allCols)
	var like []tuple.Value
	if !fresh {
		like = d.reps.At(ref).Vals
	}
	t.Vals = d.block.keep(t.Vals, like)
	d.input.Insert(t)
	if fresh {
		out.Append(d.represent(ref, t, now))
	}
}

// represent makes t, stamped now, the representative in slot ref.
func (d *Distinct) represent(ref int32, t tuple.Tuple, now int64) tuple.Tuple {
	t.TS = now
	*d.reps.At(ref) = t
	// Under the negative-tuple strategy the expiry index is never read
	// (retirement arrives as retractions), so it is not maintained either.
	if d.timeExpiry {
		d.expIdx.Insert(t)
	}
	return t
}

// processNegative removes one retracted input tuple and repairs the
// representative in its value's slot ref (0: none): retract it if no live
// duplicates remain, or re-emit with a tighter expiration if the retracted
// tuple was the longest-lived support.
func (d *Distinct) processNegative(ref int32, t tuple.Tuple, now int64, out *Emit) {
	if !d.input.Remove(t) || ref == 0 {
		return
	}
	rep := *d.reps.At(ref)
	// Find the longest-lived remaining duplicate. Under the negative-tuple
	// strategy stored tuples stay live until retracted, whatever their exp.
	probeAt := now
	if !d.timeExpiry {
		probeAt = noExpiry
	}
	best, found := d.longestLived(ref, probeAt)
	switch {
	case !found:
		d.reps.Delete(ref)
		if d.timeExpiry {
			d.expIdx.Remove(rep)
		}
		out.Append(rep.Negative(now))
	case rep.Exp > best.Exp:
		// The retracted tuple was the rep's support; shorten the rep.
		if d.timeExpiry {
			d.expIdx.Remove(rep)
		}
		out.Append(rep.Negative(now))
		out.Append(d.represent(ref, best, now))
	}
}

// Advance expires representatives eagerly, emitting replacements (the
// youngest live duplicate) per Figure 2, and lazily trims the input buffer.
func (d *Distinct) Advance(now int64) ([]tuple.Tuple, error) {
	if !d.timeExpiry || now <= d.clock {
		return nil, nil
	}
	d.clock = now
	out := &d.advOut
	out.Reset()
	// The wave is the index's expiry scratch; represent inserts into the
	// index's store, not into the wave, so it may run while the loop iterates.
	for _, rep := range d.expIdx.ExpireUpTo(now) {
		ref := d.reps.FindRow(rep, d.allCols)
		if ref == 0 {
			continue // stale index entry; the value was retracted
		}
		if cur := d.reps.At(ref); cur.Exp != rep.Exp || cur.TS != rep.TS {
			continue // stale index entry; rep was replaced
		}
		// Replacement: youngest live duplicate in the input buffer.
		best, found := d.longestLived(ref, now)
		d.touched += int64(len(d.cands))
		if found {
			out.Append(d.represent(ref, best, now))
		} else {
			d.reps.Delete(ref)
		}
	}
	if now-d.lastTrim >= d.trimEvery {
		d.lastTrim = now
		d.input.ExpireUpTo(now)
	}
	return out.Tuples(), nil
}

// longestLived returns the duplicate in the input, live at now, with the
// latest exp — the replacement for slot ref's representative — leaving every
// live duplicate in d.cands.
func (d *Distinct) longestLived(ref int32, now int64) (best tuple.Tuple, found bool) {
	d.cands = probeAppend(d.input, d.allCols, d.reps.Key(ref), now, d.cands[:0])
	for _, m := range d.cands {
		if !found || m.Exp > best.Exp {
			best, found = m, true
		}
	}
	return best, found
}

// StateSize implements Operator: the stored input, the output state, and the
// expiry index scheduling representative expirations — every structure a
// state sampler should see, consistent with the other stateful operators.
func (d *Distinct) StateSize() int { return d.input.Len() + d.reps.Len() + d.expIdx.Len() }

// Touched implements Operator.
func (d *Distinct) Touched() int64 { return d.touched + d.input.Touched() + d.expIdx.Touched() }
