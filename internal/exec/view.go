// Package exec executes physical continuous-query plans under the three
// strategies of Section 6 — negative-tuple (NT), direct (DIRECT), and
// update-pattern-aware (UPA) — maintaining a materialized result view that
// satisfies Definitions 1 and 2 of Section 4.2 at every observable moment.
package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// View is the materialized result of a non-monotonic continuous query
// (Section 4.2: "a materialized view that reflects all the real (insertions)
// and negative (deletions) tuples that have been produced on the output
// stream").
type View interface {
	// Apply folds one output-stream tuple into the view: positive tuples
	// insert (or replace, for keyed views), negative tuples delete.
	Apply(t tuple.Tuple)
	// ExpireUpTo retires results whose exp timestamps are due and returns
	// how many rows were removed. Views under the negative-tuple strategy
	// are retired exclusively by retractions and implement this as a no-op
	// returning 0.
	ExpireUpTo(now int64) int
	// Len returns the current result count.
	Len() int
	// Snapshot returns the current result multiset (order unspecified).
	Snapshot() []tuple.Tuple
	// Touched returns cumulative tuple visits (cost accounting).
	Touched() int64
}

// keyedLookup is implemented by views that can locate result rows by key —
// hash-stored results (keyed on the retraction attribute) and keyed
// group-by views. It is the hook the authors' follow-up work ("Indexing the
// Results of Sliding Window Queries") builds on: downstream consumers read
// the materialized answer point-wise instead of scanning snapshots.
type keyedLookup interface {
	// LookupKey returns the current result rows whose key equals k, and
	// whether the view supports keyed access at all (scan-only structures
	// report false).
	LookupKey(k tuple.Key) ([]tuple.Tuple, bool)
}

// NewView builds the view described by a physical plan's configuration.
func NewView(cfg plan.ViewConfig) (View, error) {
	switch cfg.Kind {
	case plan.ViewAppend:
		return &appendView{}, nil
	case plan.ViewKeyed:
		return &keyedView{keyCols: cfg.KeyCols}, nil
	case plan.ViewFIFO:
		return &bufferView{buf: statebuf.NewFIFO(), timeExpiry: cfg.TimeExpiry}, nil
	case plan.ViewList:
		return &bufferView{buf: statebuf.NewList(), timeExpiry: cfg.TimeExpiry}, nil
	case plan.ViewPartitioned:
		buf := statebuf.New(statebuf.Config{Kind: statebuf.KindPartitioned, KeyCols: cfg.KeyCols, Horizon: cfg.Horizon, Partitions: cfg.Partitions})
		return &bufferView{buf: buf, timeExpiry: cfg.TimeExpiry}, nil
	case plan.ViewHash:
		return &bufferView{buf: statebuf.NewHash(cfg.KeyCols), timeExpiry: cfg.TimeExpiry}, nil
	default:
		return nil, fmt.Errorf("exec: unknown view kind %v", cfg.Kind)
	}
}

// bufferView stores results in one of the statebuf structures; this is the
// view whose maintenance cost the three strategies differ on.
type bufferView struct {
	buf        statebuf.Buffer
	timeExpiry bool
}

func (v *bufferView) Apply(t tuple.Tuple) {
	if t.Neg {
		v.buf.Remove(t)
		return
	}
	v.buf.Insert(t)
}

func (v *bufferView) ExpireUpTo(now int64) int {
	if v.timeExpiry {
		return len(v.buf.ExpireUpTo(now))
	}
	return 0
}

func (v *bufferView) Len() int { return v.buf.Len() }

func (v *bufferView) Snapshot() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, v.buf.Len())
	v.buf.Scan(func(t tuple.Tuple) bool { out = append(out, t); return true })
	return out
}

func (v *bufferView) Touched() int64 { return v.buf.Touched() }

// LookupKey implements keyedLookup when the underlying buffer probes by key.
func (v *bufferView) LookupKey(k tuple.Key) ([]tuple.Tuple, bool) {
	p, ok := v.buf.(statebuf.ProbeAppender)
	if !ok {
		return nil, false
	}
	return p.ProbeAppend(k, math.MinInt64, nil), true
}

// SaveState implements checkpoint.Snapshotter by delegating to the buffer.
func (v *bufferView) SaveState(enc *checkpoint.Encoder) error { return v.buf.SaveState(enc) }

// LoadState implements checkpoint.Snapshotter.
func (v *bufferView) LoadState(dec *checkpoint.Decoder) error { return v.buf.LoadState(dec) }

// keyedView replaces rows by key — group-by results, where a new aggregate
// value for a group supersedes the previous one without a retraction
// (Section 2.1), and a negative tuple removes the group's row.
type keyedView struct {
	keyCols []int
	rows    statebuf.Table[tuple.Tuple]
	touched int64
}

func (v *keyedView) Apply(t tuple.Tuple) {
	v.touched++
	if t.Neg {
		if ref := v.rows.FindRow(t, v.keyCols); ref != 0 {
			v.rows.Delete(ref)
		}
		return
	}
	ref, _ := v.rows.UpsertRow(t, v.keyCols)
	*v.rows.At(ref) = t
}

func (v *keyedView) ExpireUpTo(int64) int { return 0 } // rows die by replacement only

func (v *keyedView) Len() int { return v.rows.Len() }

func (v *keyedView) Snapshot() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, v.rows.Len())
	v.rows.Range(func(ref int32) { out = append(out, *v.rows.At(ref)) })
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key(v.keyCols).String() < out[j].Key(v.keyCols).String()
	})
	return out
}

func (v *keyedView) Touched() int64 { return v.touched }

// LookupKey implements keyedLookup: at most one row per group.
func (v *keyedView) LookupKey(k tuple.Key) ([]tuple.Tuple, bool) {
	if ref := v.rows.Find(k); ref != 0 {
		return []tuple.Tuple{*v.rows.At(ref)}, true
	}
	return nil, true
}

// SaveState implements checkpoint.Snapshotter: the cost counter and the
// group rows with their keys.
func (v *keyedView) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(v.touched)
	v.rows.Save(enc, nil, nil, func(t *tuple.Tuple) { enc.Tuple(*t) })
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (v *keyedView) LoadState(dec *checkpoint.Decoder) error {
	v.touched = dec.Varint()
	v.rows = statebuf.Table[tuple.Tuple]{}
	return v.rows.Load(dec, func(t *tuple.Tuple, _ bool) error { *t = dec.Tuple(); return nil })
}

// appendView is the append-only result of a monotonic query; it retains a
// bounded tail plus a count, since unbounded retention is the point of
// monotonic outputs being streams, not views.
type appendView struct {
	tail  []tuple.Tuple
	total int64
}

// appendTailMax bounds the retained suffix of an append-only result.
const appendTailMax = 4096

func (v *appendView) Apply(t tuple.Tuple) {
	if t.Neg {
		return // monotonic queries never retract
	}
	v.total++
	v.tail = append(v.tail, t)
	if len(v.tail) > appendTailMax {
		v.tail = append(v.tail[:0:0], v.tail[len(v.tail)-appendTailMax/2:]...)
	}
}

func (v *appendView) ExpireUpTo(int64) int { return 0 }

func (v *appendView) Len() int { return int(v.total) }

func (v *appendView) Snapshot() []tuple.Tuple { return append([]tuple.Tuple(nil), v.tail...) }

func (v *appendView) Touched() int64 { return v.total }

// SaveState implements checkpoint.Snapshotter: the total and the retained
// tail.
func (v *appendView) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(v.total)
	enc.Tuples(v.tail)
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (v *appendView) LoadState(dec *checkpoint.Decoder) error {
	v.total = dec.Varint()
	v.tail = dec.Tuples()
	return dec.Err()
}
