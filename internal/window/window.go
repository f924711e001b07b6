// Package window implements sliding windows over data streams: the
// memory-bounding construct of Section 1 of Golab & Özsu (SIGMOD 2005).
//
// A time-based window of size T retains the tuples that arrived during the
// last T time units; a count-based window of size N retains the N most recent
// tuples. The window is the leaf of every continuous query plan: it stamps
// each arriving tuple with its expiration timestamp (exp = ts + T, Section
// 2.2) and — under the negative-tuple execution strategy — materializes its
// contents and emits an explicit negative tuple for every expiration
// (Section 2.3.1).
package window

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Type distinguishes time-based from count-based windows.
type Type int

const (
	// TimeBased windows retain tuples from the last Size time units.
	TimeBased Type = iota
	// CountBased windows retain the most recent Size tuples.
	CountBased
)

// String names the window type.
func (t Type) String() string {
	if t == CountBased {
		return "count"
	}
	return "time"
}

// Spec describes a sliding window over one base stream.
type Spec struct {
	Type Type
	// Size is the window length: time units for TimeBased, tuple count for
	// CountBased. Size 0 with TimeBased means an unbounded stream (tuples
	// never expire by window movement).
	Size int64
}

// Unbounded is the spec of a raw, windowless stream.
var Unbounded = Spec{Type: TimeBased, Size: 0}

// IsUnbounded reports whether the spec retains tuples forever.
func (s Spec) IsUnbounded() bool { return s.Type == TimeBased && s.Size == 0 }

// String renders the spec, e.g. "time(5000)".
func (s Spec) String() string {
	if s.IsUnbounded() {
		return "stream"
	}
	return fmt.Sprintf("%s(%d)", s.Type, s.Size)
}

// Validate checks the spec for consistency.
func (s Spec) Validate() error {
	if s.Size < 0 {
		return fmt.Errorf("window: negative size %d", s.Size)
	}
	if s.Type == CountBased && s.Size == 0 {
		return fmt.Errorf("window: count-based window must have positive size")
	}
	return nil
}

// Window is the runtime state of one sliding window. For time-based windows
// the materialized content is optional (only the negative-tuple strategy
// needs it); count-based windows always materialize, because eviction is
// driven by arrivals rather than timestamps.
type Window struct {
	spec        Spec
	materialize bool
	buf         *statebuf.FIFOBuffer
	lastTS      int64
	count       int64
	// scratch backs the evicted-tuples slice Arrive returns for count-based
	// windows, so steady-state eviction allocates nothing.
	scratch []tuple.Tuple
}

// New builds a window; materialize controls whether contents are stored
// (required for the negative-tuple strategy and for count-based windows).
func New(spec Spec, materialize bool) (*Window, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := &Window{spec: spec, materialize: materialize || spec.Type == CountBased, lastTS: -1}
	if w.materialize {
		w.buf = statebuf.NewFIFO()
	}
	return w, nil
}

// Spec returns the window's specification.
func (w *Window) Spec() Spec { return w.spec }

// Materialized reports whether the window stores its contents.
func (w *Window) Materialized() bool { return w.materialize }

// Len returns the number of stored tuples (0 if not materialized).
func (w *Window) Len() int {
	if w.buf == nil {
		return 0
	}
	return w.buf.Len()
}

// Arrive admits a new base-stream tuple: it validates timestamp monotonicity,
// stamps the expiration timestamp, stores the tuple if materializing, and for
// count-based windows returns the tuples evicted to keep the window at its
// size bound (as negative-tuple-ready originals).
//
// The returned stamped tuple is what flows into the query plan. The evicted
// slice is scratch owned by the window: it is only valid until the next
// Arrive call, and callers that need the tuples longer must copy them out.
func (w *Window) Arrive(t tuple.Tuple) (stamped tuple.Tuple, evicted []tuple.Tuple, err error) {
	if t.Neg {
		return tuple.Tuple{}, nil, fmt.Errorf("window: base streams are append-only; negative arrival %v", t)
	}
	if t.TS < w.lastTS {
		return tuple.Tuple{}, nil, fmt.Errorf("window: non-decreasing timestamps required (got %d after %d)", t.TS, w.lastTS)
	}
	w.lastTS = t.TS
	stamped = t
	switch {
	case w.spec.Type == TimeBased && w.spec.Size > 0:
		stamped.Exp = t.TS + w.spec.Size
	default:
		stamped.Exp = tuple.NeverExpires
	}
	w.count++
	if w.buf != nil {
		w.buf.Insert(stamped)
		if w.spec.Type == CountBased && int64(w.buf.Len()) > w.spec.Size {
			// Evict the oldest; count-based eviction is arrival-driven, so
			// the evicted tuple's Exp is conceptually "now".
			evicted = w.evictOldest(int64(w.buf.Len()) - w.spec.Size)
		}
	}
	return stamped, evicted, nil
}

// StampRun admits a whole run of n same-timestamp arrivals at once,
// returning the expiration timestamp every tuple in the run receives — the
// vectorized form of per-tuple Arrive for the columnar ingest path, which
// stamps the Exp column in one pass. It is only valid for non-materialized
// windows (the columnar path is ruled out when any window materializes):
// materialized contents and count-based eviction require per-tuple Arrive.
func (w *Window) StampRun(ts int64, n int) (int64, error) {
	if w.buf != nil {
		return 0, fmt.Errorf("window: StampRun on a materialized window")
	}
	if ts < w.lastTS {
		return 0, fmt.Errorf("window: non-decreasing timestamps required (got %d after %d)", ts, w.lastTS)
	}
	w.lastTS = ts
	w.count += int64(n)
	if w.spec.Type == TimeBased && w.spec.Size > 0 {
		return ts + w.spec.Size, nil
	}
	return tuple.NeverExpires, nil
}

func (w *Window) evictOldest(n int64) []tuple.Tuple {
	out := w.scratch[:0]
	for i := int64(0); i < n; i++ {
		var oldest *tuple.Tuple
		w.buf.Scan(func(t tuple.Tuple) bool {
			oldest = &t
			return false // FIFO buffer scans in insertion order
		})
		if oldest == nil {
			break
		}
		got := *oldest
		if !w.buf.Remove(got) {
			break
		}
		out = append(out, got)
	}
	w.scratch = out
	return out
}

// ExpireUpTo removes and returns tuples that fell out of a materialized
// time-based window at time now. The negative-tuple strategy turns each into
// an explicit retraction; other strategies need not materialize at all.
func (w *Window) ExpireUpTo(now int64) []tuple.Tuple {
	if w.buf == nil || w.spec.Type != TimeBased {
		return nil
	}
	return w.buf.ExpireUpTo(now)
}

// Contents visits the stored tuples in arrival order (materialized only).
func (w *Window) Contents(fn func(t tuple.Tuple) bool) {
	if w.buf != nil {
		w.buf.Scan(fn)
	}
}

// Arrivals returns the total number of tuples admitted.
func (w *Window) Arrivals() int64 { return w.count }

// Discard empties a materialized window's backing buffer in one pass,
// releasing its pages to the chunk arena. The multi-query executor calls it
// when the last query referencing a shared source unregisters, so retired
// window state is freed immediately instead of lingering until collection.
func (w *Window) Discard() {
	if w.buf != nil {
		w.buf.Clear()
	}
	w.scratch = nil
}

// SaveState implements checkpoint.Snapshotter: the monotonicity cursor, the
// arrival count, and — when materializing — the stored contents. The spec
// itself comes from the plan and is covered by the restore fingerprint.
func (w *Window) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(w.lastTS)
	enc.Varint(w.count)
	enc.Bool(w.buf != nil)
	if w.buf != nil {
		return w.buf.SaveState(enc)
	}
	return enc.Err()
}

// SaveSlice writes SaveState's layout restricted to the stored tuples keep
// selects: a partitioned engine writes one slice of each shared window per
// partition section. The arrival count travels in the lead slice only (zero
// in the others), so LoadSlice's sums give back the window's.
func (w *Window) SaveSlice(enc *checkpoint.Encoder, lead bool, keep func(t tuple.Tuple) bool) error {
	enc.Varint(w.lastTS)
	if lead {
		enc.Varint(w.count)
	} else {
		enc.Varint(0)
	}
	enc.Bool(w.buf != nil)
	if w.buf != nil {
		return w.buf.SaveSlice(enc, lead, keep)
	}
	return enc.Err()
}

// LoadSlice reads the window state of a later partition section and merges
// it into w, which holds the sections read before it: stored tuples in
// (TS, section) order, the later monotonicity cursor, arrival counts summed.
func (w *Window) LoadSlice(dec *checkpoint.Decoder) error {
	o := &Window{spec: w.spec, materialize: w.materialize, lastTS: -1}
	if w.buf != nil {
		o.buf = statebuf.NewFIFO()
	}
	if err := o.LoadState(dec); err != nil {
		return err
	}
	w.lastTS = max(w.lastTS, o.lastTS)
	w.count += o.count
	if w.buf != nil {
		w.buf.Absorb(o.buf)
	}
	return nil
}

// LoadState implements checkpoint.Snapshotter.
func (w *Window) LoadState(dec *checkpoint.Decoder) error {
	w.lastTS = dec.Varint()
	w.count = dec.Varint()
	materialized := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if materialized != (w.buf != nil) {
		return fmt.Errorf("%w: window materialization flag disagrees with plan", checkpoint.ErrCorrupt)
	}
	if w.buf != nil {
		return w.buf.LoadState(dec)
	}
	return nil
}
