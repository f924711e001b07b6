// Package statebuf provides the update-pattern-aware state buffers of
// Section 5.3.2 of Golab & Özsu (SIGMOD 2005), plus the baseline structures
// used by the negative-tuple (NT) and direct (DIRECT) execution strategies:
//
//   - FIFOBuffer: for weakest non-monotonic (WKS) state, where expiration
//     order equals insertion order — O(1) insert at the tail, O(1) expire
//     from the head.
//   - ListBuffer: the DIRECT baseline — the FIFO's paged deque in insertion
//     order, scanned whole by every expiration, negative-tuple removal and
//     probe. This is the inefficiency UPA removes.
//   - PartitionedBuffer: for weak non-monotonic (WK) state, and for strict
//     state with rare premature expirations — a circular array of partitions
//     bucketed by expiration time (calendar-queue-like), so expiration touches
//     only due partitions while insertion stays O(1) (lazy) or O(log
//     partition) (eager, partitions sorted by expiration). Its Calendar is
//     also what negation and intersection file their entries in.
//   - HashBuffer: for the NT strategy and for strict non-monotonic (STR)
//     state with frequent premature expirations — tuples found by key, so
//     negative tuples delete in O(1) expected time.
//   - The indexed FIFO (KindIndexedFIFO): for probed WKS state — a keyed
//     calendar with one partition, sorted by expiration, that spans all time.
//
// The last three are one keyed store: tuples in the entries of a paged Slab
// and, when the plan probes or retracts the state by key, one index from a
// key digest to a chain of entries, which gives probes and removals O(bucket)
// cost instead of O(state). The hash is that store alone; the calendars file
// the same entries into partitions.
//
// All buffers account the number of tuples they touch per operation, which
// the experiment harness reports alongside wall-clock time.
//
// Beside the buffers sits Table, the keyed state of the stateful operators:
// one slot per value in a paged Slab, found by key digest. Every structure
// here iterates, expires equal (Exp, TS) and checkpoints in an order fixed by
// its contents and history — slot order, digest order, insertion order —
// never in Go's map order.
package statebuf

import (
	"cmp"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// Buffer is the common contract of all state buffers. A buffer stores
// positive tuples carrying expiration timestamps and supports the three
// events of continuous query processing: insertion of new tuples, expiration
// of old tuples by timestamp, and explicit removal driven by negative tuples.
type Buffer interface {
	// Insert stores t. The tuple's Exp field governs when it expires.
	Insert(t tuple.Tuple)

	// ExpireUpTo removes every stored tuple with Exp <= now and returns
	// them, ordered by (Exp, TS). Operators that must react to expirations
	// (duplicate elimination, group-by, negation) consume the return value;
	// lazily-maintained operators may ignore it. The returned slice is a
	// scratch buffer owned by the implementation: it is only valid until the
	// next ExpireUpTo call on the same buffer, and callers that need the
	// tuples longer must copy them out.
	ExpireUpTo(now int64) []tuple.Tuple

	// Remove deletes one stored tuple whose values equal t's (the matching
	// rule for negative tuples) and reports whether one was found. Among
	// value twins every kind takes the one carrying t's exact Exp (negative
	// tuples carry the original's), else the oldest: lowest TS in the keyed
	// store, first inserted in the list kinds, which is the same tuple because
	// TS never decreases along a stream. The tuple leaves Len, Scan, probes
	// and every later ExpireUpTo at once. A calendar may keep a stale
	// reference to its entry in a partition until that partition fires; the
	// hash releases the entry immediately.
	Remove(t tuple.Tuple) bool

	// Scan visits every stored tuple (including ones that are expired but
	// not yet physically removed, for lazily-maintained buffers) until fn
	// returns false. Callers that probe lazily-maintained state must skip
	// expired tuples themselves, per Section 2.1 of the paper.
	Scan(fn func(t tuple.Tuple) bool)

	// Len returns the number of stored tuples (live or lazily retained).
	Len() int

	// Touched returns the cumulative number of tuple visits performed by
	// this buffer across all operations — the cost-accounting signal that
	// distinguishes the strategies in the experiments.
	Touched() int64

	// Rebind calls fn with every stored tuple and stores the slice fn
	// returns in that tuple's place. fn must return the tuple's values bit
	// for bit, so the tuple keeps its key, digest and position; no visit is
	// counted. An owner uses it to share one copy of a value among the
	// tuples that hold it, as after a restore.
	Rebind(fn func(t tuple.Tuple) []tuple.Value)

	// SaveState and LoadState write and restore the stored tuples, cursors
	// and counters; the configuration comes from the plan.
	checkpoint.Snapshotter
}

// ProbeAppender is implemented by buffers that can locate tuples by key
// faster than a full scan; operators and views type-assert their buffers to
// it and scan otherwise. Live tuples (Exp > now) whose key over the buffer's
// key columns equals k are appended to dst and the extended slice is
// returned, so a caller can reuse one scratch slice across probes — callback
// probing forced the visitor closure, and everything it captured, onto the
// heap on every call.
type ProbeAppender interface {
	ProbeAppend(k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple
}

// HashedBuffer is implemented by buffers indexed on key columns that take a
// caller-computed key digest instead of re-deriving it from the tuple, so a
// join that inserts a tuple on one side and probes the other with the same key
// hashes it exactly once. The digest must be the Hash64 of the tuple's key
// over KeyCols, which callers match against their own key columns once, at
// construction; k itself still travels with the probe because distinct keys
// can collide into one digest bucket and each visited tuple is verified
// against it.
type HashedBuffer interface {
	KeyCols() []int
	InsertHashed(h uint64, t tuple.Tuple)
	ProbeAppendHashed(h uint64, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple
}

// sortExpired orders expired tuples deterministically by (Exp, TS) so
// replacement emissions are reproducible across buffer kinds. FIFO-shaped
// buffers pop expirations already in that order, so an O(n) sortedness scan
// runs first. The stable sort is the generic one: sort.SliceStable's
// reflection swapper allocates on every call, which the steady-state
// allocation gates forbid.
func sortExpired(ts []tuple.Tuple) []tuple.Tuple {
	if !slices.IsSortedFunc(ts, compareExpiry) {
		slices.SortStableFunc(ts, compareExpiry)
	}
	return ts
}

func expiresBefore(a, b tuple.Tuple) bool { return compareExpiry(a, b) < 0 }

// compareExpiry orders tuples by (Exp, TS).
func compareExpiry(a, b tuple.Tuple) int {
	if a.Exp != b.Exp {
		return cmp.Compare(a.Exp, b.Exp)
	}
	return cmp.Compare(a.TS, b.TS)
}
