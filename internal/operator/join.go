package operator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Join is the sliding-window equijoin of Section 2.1: both inputs are
// stored; each arrival is inserted into its side's state buffer and probes
// the other side for key matches among non-expired tuples. Result tuples
// concatenate left and right values and expire when either constituent
// expires (exp = min of the two, Section 2.2).
//
// State maintenance is lazy: expired tuples may linger until Advance and are
// skipped during probing, trading memory for maintenance cost (Section 2.1).
// The buffer implementations are injected by the physical planner — FIFO
// lists for WKS inputs, partitioned calendars for WK inputs, hash tables
// under the negative-tuple strategy — which is precisely what the strategies
// of Section 6 vary.
//
// Negative tuples (from NT-mode windows or a negation below) remove the
// matching stored tuple and emit retractions of the join results it
// contributed to.
type Join struct {
	schema    *tuple.Schema
	leftCols  []int
	rightCols []int
	residual  Predicate // optional filter over the concatenated tuple
	state     [2]statebuf.Buffer
	keyCols   [2][]int
	// hashed caches the HashedBuffer view of each buffer when its key columns
	// are the join columns, so each arrival's join key is derived and hashed
	// once for its own side's insert and the opposite side's probe.
	hashed [2]statebuf.HashedBuffer
	// cands is the reusable probe-candidate scratch of matches.
	cands []tuple.Tuple
	// block is the unused tail of the value block results carve their
	// concatenated values from, as Project's rows do.
	block valueBlock
	// colArena carves the value slices of rows the columnar kernel has to
	// materialize for state insertion/removal (see colkernel.go).
	colArena tuple.ValueArena
	// mixedState latches true once state holds any row whose value slice the
	// join does not own — row-path inserts store the caller's slice by
	// reference, and restored checkpoints store the decoder's. While false,
	// every stored row came from colArena, so Advance can recycle expired
	// rows' slices back into it instead of carving fresh slab space.
	mixedState bool
	clock      int64
	// timeExpiry is false under the negative-tuple strategy: stored tuples
	// are live until their retraction arrives, so probes must not skip
	// them by exp timestamp.
	timeExpiry bool
}

// JoinConfig configures a window join.
type JoinConfig struct {
	Left, Right *tuple.Schema
	// LeftCols/RightCols are the equijoin column positions, pairwise.
	LeftCols, RightCols []int
	// Residual optionally filters concatenated results; nil means none.
	Residual Predicate
	// LeftBuf/RightBuf choose the state structures.
	LeftBuf, RightBuf statebuf.Config
	// NoTimeExpiry marks negative-tuple-strategy state: tuples stay
	// probe-visible until explicitly retracted, and Advance never trims.
	NoTimeExpiry bool
}

// NewJoin builds a window join.
func NewJoin(cfg JoinConfig) (*Join, error) {
	if len(cfg.LeftCols) == 0 || len(cfg.LeftCols) != len(cfg.RightCols) {
		return nil, fmt.Errorf("join: key columns must be non-empty and pairwise (%d vs %d)", len(cfg.LeftCols), len(cfg.RightCols))
	}
	for _, c := range cfg.LeftCols {
		if c < 0 || c >= cfg.Left.Len() {
			return nil, fmt.Errorf("join: left key column %d out of range", c)
		}
	}
	for _, c := range cfg.RightCols {
		if c < 0 || c >= cfg.Right.Len() {
			return nil, fmt.Errorf("join: right key column %d out of range", c)
		}
	}
	// Hash buffers must be keyed on the join columns of their own side.
	lb, rb := cfg.LeftBuf, cfg.RightBuf
	if lb.Kind == statebuf.KindHash {
		lb.KeyCols = cfg.LeftCols
	}
	if rb.Kind == statebuf.KindHash {
		rb.KeyCols = cfg.RightCols
	}
	j := &Join{
		schema:     cfg.Left.Concat(cfg.Right),
		leftCols:   append([]int(nil), cfg.LeftCols...),
		rightCols:  append([]int(nil), cfg.RightCols...),
		residual:   cfg.Residual,
		keyCols:    [2][]int{append([]int(nil), cfg.LeftCols...), append([]int(nil), cfg.RightCols...)},
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry,
	}
	j.state[0] = statebuf.New(lb)
	j.state[1] = statebuf.New(rb)
	for side := range j.state {
		if hb, ok := j.state[side].(statebuf.HashedBuffer); ok && equalCols(hb.KeyCols(), j.keyCols[side]) {
			j.hashed[side] = hb
		}
	}
	return j, nil
}

func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Class implements Operator.
func (j *Join) Class() core.OpClass { return core.OpJoin }

// Schema implements Operator.
func (j *Join) Schema() *tuple.Schema { return j.schema }

// ProcessBatch implements Operator: the whole run shares one output buffer,
// so only result construction (Concat) allocates.
func (j *Join) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 && side != 1 {
		return badSide("join", side)
	}
	for i := range in {
		j.processOne(side, in[i], now, out)
	}
	return nil
}

// processOne handles one element of a run.
func (j *Join) processOne(side int, t tuple.Tuple, now int64, out *Emit) {
	if now > j.clock {
		j.clock = now
	}
	if t.Neg {
		j.processNegative(side, t, now, out)
		return
	}
	k := t.Key(j.keyCols[side])
	j.mixedState = true // t.Vals is the caller's slice, stored by reference
	if hb := j.hashed[side]; hb != nil {
		hb.InsertHashed(k.Hash64(), t)
	} else {
		j.state[side].Insert(t)
	}
	j.matches(side, t, k, now, false, out)
}

// matches probes the opposite side with t's precomputed join key k and
// appends (possibly negative) results. Candidates are collected into the
// join's scratch slice first: closure-based probing heap-allocates the
// visitor and its captures on every probing arrival.
func (j *Join) matches(side int, t tuple.Tuple, k tuple.Key, now int64, neg bool, out *Emit) {
	other := 1 - side
	probeAt := now
	if !j.timeExpiry {
		probeAt = noExpiry
	}
	cands := probeAppend(j.state[other], j.keyCols[other], k, probeAt, j.cands[:0])
	for _, m := range cands {
		l, rt := t, m
		if side == 1 {
			l, rt = m, t
		}
		vals := j.block.carve(len(l.Vals) + len(rt.Vals))
		copy(vals[copy(vals, l.Vals):], rt.Vals)
		r := tuple.Tuple{TS: now, Exp: min(l.Exp, rt.Exp), Vals: vals}
		if j.residual != nil && !j.residual.Eval(r) {
			continue
		}
		r.Neg = neg
		out.Append(r)
	}
	j.cands = cands[:0]
}

func (j *Join) processNegative(side int, t tuple.Tuple, now int64, out *Emit) {
	if !j.state[side].Remove(t) {
		// The tuple may have been lazily expired already; nothing to retract
		// beyond what exp timestamps retire at the consumers.
		return
	}
	j.matches(side, t, t.Key(j.keyCols[side]), now, true, out)
}

// Advance lazily discards expired state; window joins emit nothing on
// expiration (their results expire downstream via exp timestamps). While all
// stored rows are arena-owned (no row-path insert or restore has happened),
// the expired rows' value slices go back to the arena for the next
// materialization instead of to the garbage collector.
func (j *Join) Advance(now int64) ([]tuple.Tuple, error) {
	if now > j.clock {
		j.clock = now
	}
	if j.timeExpiry {
		for side := range j.state {
			expired := j.state[side].ExpireUpTo(j.clock)
			if !j.mixedState {
				for i := range expired {
					j.colArena.Recycle(expired[i].Vals)
				}
			}
		}
	}
	return nil, nil
}

// StateSize implements Operator.
func (j *Join) StateSize() int { return j.state[0].Len() + j.state[1].Len() }

// Touched implements Operator.
func (j *Join) Touched() int64 { return j.state[0].Touched() + j.state[1].Touched() }
