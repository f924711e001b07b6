package exec

import (
	"errors"
	"io"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// ErrClosed is what every error-returning Executor method returns after
// Close.
var ErrClosed = errors.New("exec: executor is closed")

// Executor is the contract of one running continuous query. Definitions 1
// and 2 of the paper fix what the answer is at every τ and say nothing about
// how many workers computed it, so the plain Engine and the key-partitioned
// worker coordinator are two implementations of this one method set, and
// Open is the only place that chooses between them.
//
// Goroutines: one producer drives an Executor — no method is safe to call
// concurrently with another, except that Stats, Profile, Explain, Watermark,
// DeltaLatency, Violations and Metrics read only atomic instruments and may
// be called from a second goroutine (an exposition endpoint) while the
// producer runs; their mid-run values are approximate. When shards run,
// QuerySpec.OnEmit is invoked from the worker goroutines, possibly
// concurrently, so the callback must be thread-safe; on the plain engine it
// runs on the producer's goroutine.
//
// After Close, every method that returns an error returns ErrClosed and
// changes nothing; the error-free accessors keep answering from the state
// the executor was closed in.
type Executor interface {
	// Push admits one base-stream tuple; timestamps must not decrease across
	// streams. The vals slice is retained.
	Push(streamID int, ts int64, vals ...tuple.Value) error
	// PushBatch admits a run of arrivals, semantically one Push per element.
	// An arrival refused before ingest (regressing timestamp, unknown stream)
	// moves no state — clock included — and ends the call; the elements
	// before it have been admitted.
	PushBatch(batch []Arrival) error
	// Advance moves logical time forward with no arrival.
	Advance(ts int64) error
	// ApplyTableUpdate applies one relation/NRR mutation at its timestamp.
	ApplyTableUpdate(tbl *relation.Table, u relation.Update) error
	// Sync forces all pending work and maintenance up to Clock, making the
	// view Definition-1 exact.
	Sync() error

	// Snapshot syncs and returns the result multiset.
	Snapshot() ([]tuple.Tuple, error)
	// ResultCount syncs and returns the result cardinality.
	ResultCount() (int, error)
	// LookupKey returns the result rows under k as of the last Sync; ok is
	// false when the view structure has no keyed access path.
	LookupKey(k tuple.Key) (rows []tuple.Tuple, ok bool)

	// Clock is the largest timestamp admitted.
	Clock() int64
	// Streams lists the base-stream ids the query reads.
	Streams() []int
	// Stats returns the cumulative counters (summed over shards).
	Stats() Stats
	// StateTuples waits for in-flight work and counts the tuples stored in
	// operator state, windows and the view. It does not sync.
	StateTuples() (int, error)
	// Touched waits for in-flight work and returns cumulative tuple visits,
	// the paper's Section 6 work measure. It does not sync.
	Touched() (int64, error)
	// Watermark is the timestamp at or below which every expiration is
	// reflected in the view (the oldest shard's, when shards run).
	Watermark() int64

	// Metrics returns the registry holding the executor's instruments.
	Metrics() *obs.Registry
	// DeltaLatency snapshots the ingest→emit latency distributions by output
	// polarity; zero unless Config.Metrics was set.
	DeltaLatency() (pos, neg obs.LogHistogramSnapshot)
	// Violations counts retractions that exceeded an operator's declared
	// update-pattern class; 0 on a conformant run.
	Violations() int64
	// Profile returns per-operator counters in plan pre-order.
	Profile() []OpProfile
	// WriteProfile waits for in-flight work and renders Profile as a tree
	// (one per shard when shards run).
	WriteProfile(w io.Writer) error
	// Explain returns the renderable plan tree, with live counters when
	// analyze is set.
	Explain(analyze bool) *plan.ExplainTree
	// HealthRules returns the built-in health rule set for this plan.
	HealthRules(slo HealthSLO) []obs.Rule

	// Checkpoint writes the complete dynamic state without perturbing the run.
	Checkpoint(w io.Writer) error
	// Restore rehydrates a freshly opened executor from a checkpoint of the
	// same plan and shard count; a disagreement returns
	// *checkpoint.MismatchError before any state is touched.
	Restore(r io.Reader) error

	// Shards is the number of engine copies computing the answer: 1 for the
	// plain engine.
	Shards() int
	// Close stops any workers after draining what was admitted. Idempotent.
	Close() error
}

var (
	_ Executor = (*Engine)(nil)
	_ Executor = (*sharded)(nil)
)

// Open builds the executor for one query and is the one place that decides
// between sequential and key-partitioned execution. With shards < 2, or when
// plan.PartitionKey rejects the plan, it returns a plain *Engine holding
// spec as its only registered query — a fallen-back executor is an ordinary
// engine, and fallbackReason carries the rejection. Otherwise it returns the
// worker coordinator over shards engine copies; those share cfg.Metrics (or
// one private registry) under a "shard" label, and spec.Name is not used:
// per-query series belong to registries. cfg.OnEmit is ignored in favour of
// spec.OnEmit.
func Open(spec QuerySpec, cfg Config, shards int) (ex Executor, fallbackReason string, err error) {
	if shards > 1 {
		part, perr := plan.PartitionKey(spec.Phys)
		if perr == nil {
			s, err := newSharded(spec, cfg, shards, part.ByStream)
			if err != nil {
				return nil, "", err
			}
			return s, "", nil
		}
		fallbackReason = perr.Error()
	}
	e := NewMulti(cfg)
	if _, err := e.RegisterQuery(spec); err != nil {
		return nil, "", err
	}
	return e, fallbackReason, nil
}
