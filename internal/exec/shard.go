package exec

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// Shard ingest metric names, labeled {shard}. They expose the back-pressure
// point: a full bounded queue blocks the producer in flushShard.
const (
	// MetricShardQueueDepth is the shard's current in-flight batch count
	// (sampled after every enqueue and dequeue; capacity is shardQueue).
	MetricShardQueueDepth = "upa_shard_queue_depth"
	// MetricShardQueueBlocked is cumulative wall time the producer spent
	// blocked on a full shard queue, recorded only when Config.Metrics is
	// set.
	MetricShardQueueBlocked = "upa_shard_queue_blocked_nanos_total"
)

// sharded is the key-partitioned implementation of Executor: n independent
// Engine copies, one per worker goroutine. Open builds it only after
// plan.PartitionKey has proved that the plan's stateful operators only ever
// relate tuples agreeing on a common key reachable from every base stream;
// arrivals are then routed by that key's hash, so every tuple interaction is
// shard-local and the final answer is the bag union of the shard views. Table
// updates are fanned to all shards (relations are replicated state).
//
// Arrivals are buffered per shard and handed to workers in batches over a
// bounded channel, so a fast producer back-pressures instead of ballooning.
// Within a shard, Engine semantics are untouched: each worker sees its
// partition of the input in global timestamp order and runs the same
// maintenance cadence a sequential engine would. Metrics are safe under the
// workers: the registry is mutex/atomic-protected, and each shard's series
// carry a "shard" label.
type sharded struct {
	phys   *plan.Physical
	shards []*Engine
	// route maps streamID -> routing columns (from plan.PartitionKey).
	route map[int][]int
	clock int64

	chans   []chan shardOp
	pending [][]Arrival
	// pendingOrigin[i] is the monotonic stamp of shard i's oldest buffered
	// arrival (the delta-latency origin for the next flushed batch).
	pendingOrigin []int64
	// free recycles drained batch slices from worker back to producer, so
	// steady-state ingest reuses at most queue-depth+1 buffers per shard
	// instead of allocating one per flush.
	free []chan []Arrival
	wg   sync.WaitGroup
	// done is set by Close; barrier and the ingest calls then return ErrClosed
	// instead of writing to closed worker channels. Producer-side only, like
	// the rest of the ingest API.
	done bool

	// Per-shard ingest-queue instruments.
	qdepth  []*obs.Gauge
	blocked []*obs.Counter
	// timed gates the wall-clock blocked measurement, like Engine.timed.
	timed bool
}

// shardBatch is how many arrivals are buffered per shard before handing the
// run to its worker; shardQueue bounds in-flight batches per shard.
const (
	shardBatch = 512
	shardQueue = 4
)

// shardOp is one unit of work for a shard worker: a batch of arrivals, or a
// barrier request (ack != nil) answered once all prior batches are done.
// origin is the monotonic time (obs.Nanotime) the batch's first arrival was
// buffered, carried to the worker so recorded delta latency includes buffer
// and queue wait; 0 when the executor is untimed.
type shardOp struct {
	batch  []Arrival
	ack    chan error
	origin int64
}

// newSharded starts n > 1 workers over n copies of spec's plan, routed by
// route. The shards share cfg.Metrics (or one private registry),
// distinguished by a "shard" label.
func newSharded(spec QuerySpec, cfg Config, n int, route map[int][]int) (*sharded, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	phys := spec.Phys
	s := &sharded{
		phys: phys, route: route, clock: -1, timed: cfg.Metrics != nil,
		chans:         make([]chan shardOp, n),
		pending:       make([][]Arrival, n),
		pendingOrigin: make([]int64, n),
		free:          make([]chan []Arrival, n),
		qdepth:        make([]*obs.Gauge, n),
		blocked:       make([]*obs.Counter, n),
	}
	for i := 0; i < n; i++ {
		shardPhys := phys
		if i > 0 {
			// Each shard needs its own operator state and windows; rebuild
			// the physical plan from the shared (annotated) logical tree.
			var err error
			shardPhys, err = plan.Build(phys.Logical, phys.Strategy, phys.Opts)
			if err != nil {
				return nil, fmt.Errorf("exec: rebuilding plan for shard %d: %w", i, err)
			}
		}
		shardCfg := cfg
		shardCfg.Metrics = reg
		shardCfg.MetricLabels = withLabel(cfg.MetricLabels, "shard", strconv.Itoa(i))
		eng := NewMulti(shardCfg)
		if _, err := eng.RegisterQuery(QuerySpec{Phys: shardPhys, OnEmit: spec.OnEmit}); err != nil {
			return nil, err
		}
		// The shards always share a registry; only the caller asking for
		// metrics makes them read the clock.
		eng.timed = s.timed
		s.shards = append(s.shards, eng)
	}
	// Workers start only once every engine exists: a failed build above
	// leaves no goroutine behind.
	for i, eng := range s.shards {
		labels := eng.cfg.MetricLabels
		s.qdepth[i] = reg.Gauge(MetricShardQueueDepth, "in-flight ingest batches", labels)
		s.blocked[i] = reg.Counter(MetricShardQueueBlocked, "producer wall time blocked on a full shard queue", labels)
		s.chans[i] = make(chan shardOp, shardQueue)
		s.free[i] = make(chan []Arrival, shardQueue+1)
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// worker drains one shard's channel. Errors are sticky until reported at the
// next barrier; batches after an error are dropped (the engine's state is no
// longer trustworthy).
func (s *sharded) worker(i int) {
	defer s.wg.Done()
	eng := s.shards[i]
	var err error
	for op := range s.chans[i] {
		switch {
		case op.ack != nil:
			op.ack <- err
			err = nil
		case err == nil:
			err = eng.pushRuns(op.origin, op.batch, true)
		}
		if op.batch != nil {
			// Recycle the drained slice to the producer; drop it when the
			// free ring is full (Close can leave stragglers behind).
			select {
			case s.free[i] <- op.batch[:0]:
			default:
			}
		}
		s.qdepth[i].Set(int64(len(s.chans[i])))
	}
}

// Shards returns the number of engine copies.
func (s *sharded) Shards() int { return len(s.shards) }

// Push admits one base-stream tuple; the vals slice is retained.
func (s *sharded) Push(streamID int, ts int64, vals ...tuple.Value) error {
	if s.done {
		return ErrClosed
	}
	return s.enqueue(Arrival{Stream: streamID, TS: ts, Vals: vals})
}

// PushBatch admits a run of arrivals; the Vals slices are retained.
func (s *sharded) PushBatch(batch []Arrival) error {
	if s.done {
		return ErrClosed
	}
	for _, a := range batch {
		if err := s.enqueue(a); err != nil {
			return err
		}
	}
	return nil
}

// enqueue validates one arrival exactly as Engine.ingestRun does — same
// checks, same order, same words, nothing moved on a refusal — then buffers it
// for the shard its routing key hashes to.
func (s *sharded) enqueue(a Arrival) error {
	if a.TS < s.clock {
		return fmt.Errorf("exec: timestamp %d regresses before %d", a.TS, s.clock)
	}
	cols, ok := s.route[a.Stream]
	if !ok {
		return fmt.Errorf("exec: no source for stream %d", a.Stream)
	}
	s.clock = a.TS
	i := int(tuple.Tuple{Vals: a.Vals}.Key(cols).Hash64() % uint64(len(s.shards)))
	if s.pending[i] == nil {
		select {
		case b := <-s.free[i]:
			s.pending[i] = b
		default:
			s.pending[i] = make([]Arrival, 0, shardBatch)
		}
	}
	s.pending[i] = append(s.pending[i], a)
	if s.timed && len(s.pending[i]) == 1 {
		// The delta-latency origin: the oldest buffered arrival's admission.
		s.pendingOrigin[i] = obs.Nanotime()
	}
	if len(s.pending[i]) >= shardBatch {
		s.flushShard(i)
	}
	return nil
}

// flushShard hands shard i's buffered arrivals to its worker (blocking when
// the shard's queue is full — that is the back-pressure, surfaced by the
// blocked-nanos counter when the engine is timed).
func (s *sharded) flushShard(i int) {
	if len(s.pending[i]) == 0 {
		return
	}
	batch := s.pending[i]
	s.pending[i] = nil
	op := shardOp{batch: batch, origin: s.pendingOrigin[i]}
	select {
	case s.chans[i] <- op:
	default:
		if s.timed {
			start := time.Now()
			s.chans[i] <- op
			s.blocked[i].Add(time.Since(start).Nanoseconds())
		} else {
			s.chans[i] <- op
		}
	}
	s.qdepth[i].Set(int64(len(s.chans[i])))
}

// barrier flushes all buffers and waits until every worker has drained its
// queue, returning the first worker error. After it returns the coordinator
// may touch shard engines directly: the ack exchange orders all worker-side
// engine access before coordinator-side access. Every error-returning method
// but the three buffering ones (Push, PushBatch, Advance) starts here, so this
// is where a closed executor answers ErrClosed.
func (s *sharded) barrier() error {
	if s.done {
		return ErrClosed
	}
	acks := make([]chan error, len(s.shards))
	for i := range s.shards {
		s.flushShard(i)
	}
	for i := range s.shards {
		acks[i] = make(chan error, 1)
		s.chans[i] <- shardOp{ack: acks[i]}
	}
	var first error
	for _, ack := range acks {
		if err := <-ack; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Advance moves logical time forward with no arrival. Shards observe the new
// clock at the next barrier (Sync/Snapshot), which is when results are read.
func (s *sharded) Advance(ts int64) error {
	if s.done {
		return ErrClosed
	}
	if ts < s.clock {
		return fmt.Errorf("exec: time %d regresses before %d", ts, s.clock)
	}
	s.clock = ts
	return nil
}

// ApplyTableUpdate applies one relation/NRR mutation. The update is a
// replicated-state write: all workers are drained first (so no worker probes
// the table mid-mutation, and none double-counts a row it already saw), the
// update is checked before the clock moves, the shared table is mutated once,
// then the consequences are routed through every shard's plan.
func (s *sharded) ApplyTableUpdate(tbl *relation.Table, u relation.Update) error {
	if err := s.barrier(); err != nil {
		return err
	}
	if u.TS < s.clock {
		return fmt.Errorf("exec: table update at %d regresses before %d", u.TS, s.clock)
	}
	if err := tbl.Check(u); err != nil {
		return err
	}
	s.clock = u.TS
	// Advance every shard to the update's timestamp BEFORE mutating the
	// table: pending window expirations must probe the pre-update rows
	// (the sequential engine orders advance before apply the same way).
	// Otherwise an NT retraction for a tuple expiring at or before u.TS
	// would join against the post-delete table and never retract the
	// deleted row's results.
	for _, eng := range s.shards {
		if err := eng.Advance(u.TS); err != nil {
			return err
		}
	}
	if err := tbl.Apply(u); err != nil {
		return err
	}
	for _, eng := range s.shards {
		if err := eng.tableUpdate(tbl, u, false); err != nil {
			return err
		}
	}
	return nil
}

// Sync drains all workers and forces every shard's pending maintenance up to
// the coordinator clock.
func (s *sharded) Sync() error {
	if err := s.barrier(); err != nil {
		return err
	}
	for _, eng := range s.shards {
		if s.clock > eng.Clock() {
			if err := eng.Advance(s.clock); err != nil {
				return err
			}
		}
		if err := eng.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot syncs and returns the merged result multiset: the bag union of
// the shard views. A keyed (group-by) view needs no merge: PartitionKey
// accepts a group-by only when the routing columns are group columns, so each
// group lives in exactly one shard.
func (s *sharded) Snapshot() ([]tuple.Tuple, error) {
	if err := s.Sync(); err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, eng := range s.shards {
		out = append(out, eng.View().Snapshot()...)
	}
	return out, nil
}

// ResultCount syncs and returns the merged result cardinality.
func (s *sharded) ResultCount() (int, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return 0, err
	}
	return len(snap), nil
}

// LookupKey returns merged result rows under k across all shards; callers
// should Sync first (repro's Lookup does).
func (s *sharded) LookupKey(k tuple.Key) ([]tuple.Tuple, bool) {
	var out []tuple.Tuple
	for _, eng := range s.shards {
		rows, ok := eng.LookupKey(k)
		if !ok {
			return nil, false
		}
		out = append(out, rows...)
	}
	return out, true
}

// Clock returns the coordinator's logical time (the max timestamp admitted).
func (s *sharded) Clock() int64 { return s.clock }

// Streams returns the base-stream ids the plan reads.
func (s *sharded) Streams() []int { return s.shards[0].Streams() }

// Metrics returns the registry shared by all shards (the one passed in
// Config.Metrics, or a private shared registry).
func (s *sharded) Metrics() *obs.Registry { return s.shards[0].Metrics() }

// Stats sums the per-shard counters. Counter reads are atomic, so Stats is
// safe while workers run, though mid-flight values are approximate.
// MaxStateTuples sums per-shard peaks, which may overstate the true
// simultaneous peak (shards peak at different times).
func (s *sharded) Stats() Stats {
	var out Stats
	for _, eng := range s.shards {
		st := eng.Stats()
		out.Arrivals += st.Arrivals
		out.Emitted += st.Emitted
		out.Retracted += st.Retracted
		out.WindowNegatives += st.WindowNegatives
		out.MaxStateTuples += st.MaxStateTuples
	}
	return out
}

// StateTuples drains the workers and sums stored tuples across shards.
func (s *sharded) StateTuples() (int, error) {
	if err := s.barrier(); err != nil {
		return 0, err
	}
	n := 0
	for _, eng := range s.shards {
		n += eng.stateTuples()
	}
	return n, nil
}

// Touched drains the workers and sums tuple visits across shards.
func (s *sharded) Touched() (int64, error) {
	if err := s.barrier(); err != nil {
		return 0, err
	}
	var n int64
	for _, eng := range s.shards {
		n += eng.touched()
	}
	return n, nil
}

// Watermark returns the oldest shard low-watermark: every expiration at or
// below it is reflected in every shard's view. Reads are atomic-free but the
// underlying pass timestamps only move inside worker PushBatch calls or
// under a barrier, so mid-run values are approximate, like Stats.
func (s *sharded) Watermark() int64 {
	w := s.shards[0].Watermark()
	for _, eng := range s.shards[1:] {
		if ew := eng.Watermark(); ew < w {
			w = ew
		}
	}
	return w
}

// DeltaLatency merges the per-shard ingest→emit latency distributions
// (bucket-wise, quantiles recomputed) for positive and negative deltas.
func (s *sharded) DeltaLatency() (pos, neg obs.LogHistogramSnapshot) {
	pos, neg = s.shards[0].DeltaLatency()
	for _, eng := range s.shards[1:] {
		p, n := eng.DeltaLatency()
		pos = pos.Merge(p)
		neg = neg.Merge(n)
	}
	return pos, neg
}

// Violations sums pattern-conformance violations across all shards; a
// conformant run reports 0.
func (s *sharded) Violations() int64 {
	var total int64
	for _, eng := range s.shards {
		total += eng.Violations()
	}
	return total
}

// Profile merges the per-shard operator profiles by plan position: counters
// and state sum across shards, batch latencies take the max, and the
// observed pattern class is the strongest any shard exhibited. Like Stats
// it reads only atomic instruments, so it is safe while workers run.
func (s *sharded) Profile() []OpProfile {
	out := s.shards[0].Profile()
	for _, eng := range s.shards[1:] {
		for i, p := range eng.Profile() {
			if i >= len(out) {
				break
			}
			out[i].StateTuples += p.StateTuples
			out[i].Touched += p.Touched
			out[i].InPos += p.InPos
			out[i].InNeg += p.InNeg
			out[i].Emitted += p.Emitted
			out[i].Retracted += p.Retracted
			out[i].Expired += p.Expired
			out[i].ProcNanos += p.ProcNanos
			if p.MaxBatchNanos > out[i].MaxBatchNanos {
				out[i].MaxBatchNanos = p.MaxBatchNanos
			}
			if p.Observed > out[i].Observed {
				out[i].Observed = p.Observed
			}
			out[i].ViolExpiration += p.ViolExpiration
			out[i].ViolOutOfOrder += p.ViolOutOfOrder
			out[i].ViolPremature += p.ViolPremature
		}
	}
	return out
}

// WriteProfile drains the workers and writes each shard's operator profile.
func (s *sharded) WriteProfile(w io.Writer) error {
	if err := s.barrier(); err != nil {
		return err
	}
	for i, eng := range s.shards {
		if _, err := fmt.Fprintf(w, "shard %d:\n", i); err != nil {
			return err
		}
		if err := writeProfiles(w, eng.Profile()); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the workers after draining buffered arrivals. Idempotent: the
// first call drains and stops, later calls return nil immediately.
func (s *sharded) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	for i := range s.chans {
		s.flushShard(i)
		close(s.chans[i])
	}
	s.wg.Wait()
	return nil
}
