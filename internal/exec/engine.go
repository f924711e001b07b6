package exec

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// ErrClosed is what every error-returning Engine method returns after
// Close.
var ErrClosed = errors.New("exec: executor is closed")

// Config tunes the executor's maintenance cadence, mirroring the two
// experimental parameters of Section 6.1, and attaches observability.
type Config struct {
	// EagerInterval is the time between eager expiration passes (operators
	// that must react to expirations immediately: duplicate elimination,
	// group-by, negation, intersection). Section 6.1 sets it to the tuple
	// inter-arrival time; default 1.
	EagerInterval int64
	// LazyInterval is the time between lazy maintenance passes (join state
	// trims and result-view expiration). Section 6.1 sets it to five
	// percent of the window size; default 1 (fully eager) if unset.
	LazyInterval int64
	// OnEmit, when set, observes every tuple the query emits on its output
	// stream (positive and negative), before it is folded into the view.
	OnEmit func(t tuple.Tuple)
	// Metrics, when set, is the registry the engine registers its
	// instruments in (see the Metric* name constants) so an exposition
	// endpoint can scrape a live run. Setting it also enables wall-clock
	// Push latency sampling. When nil the engine keeps its counters in a
	// private registry — counter updates are single atomic adds — and
	// records no wall-clock timings.
	Metrics *obs.Registry
	// MetricLabels are merged into every metric series the engine registers
	// (engine-wide and per-operator). A partitioned engine adds {"shard": i}
	// to the operator series of partition i.
	MetricLabels obs.Labels
	// NoColumnar pins the engine to the row batch path even when the plan
	// qualifies for columnar execution (see colpath.go). Benchmarks use it to
	// measure the row path in isolation; production callers leave it false.
	NoColumnar bool
}

// Stats are cumulative executor counters, read from the engine's metrics
// registry.
type Stats struct {
	// Arrivals counts base-stream tuples pushed.
	Arrivals int64
	// Emitted counts positive output-stream tuples.
	Emitted int64
	// Retracted counts negative output-stream tuples.
	Retracted int64
	// WindowNegatives counts retractions generated by materialized windows
	// (the NT strategy's extra tuples).
	WindowNegatives int64
	// MaxStateTuples is the high-water mark of stored tuples across all
	// operator state, materialized windows, and the result view. State is
	// sampled on the first arrival, every 64th arrival thereafter, and on
	// every Sync, so sub-64-tuple fluctuations between samples can be
	// missed, but short runs and final readings are exact.
	MaxStateTuples int
}

// Engine drives a shared dataflow serving one or more registered continuous
// queries: it admits base-stream arrivals in timestamp order, routes them
// (and their eventual retractions) through the canonicalized operator DAG —
// each shared prefix traversed once — fans output deltas out to the
// per-query views, and advances operator clocks as time passes.
//
// New builds a single-query engine; NewMulti builds an empty registry engine
// that queries are added to with RegisterQuery and removed from with
// UnregisterQuery; Open builds either a single-query engine or a partitioned
// one (partition.go). Each query is read through its QueryHandle (Queries).
//
// Goroutines: one producer drives an engine — no method is safe to call
// concurrently with another, except that Stats, Watermark, DeltaLatency,
// Violations, Metrics and a QueryHandle's Profile and Explain read only
// atomic instruments and may be called from a second goroutine (an
// exposition endpoint) while the producer runs; their mid-run values are approximate. A PushBatch replays
// independent components on worker goroutines (tape.go), so OnEmit callbacks
// of different components — different partitions of one query included —
// may run concurrently; one component's callbacks never overlap and keep
// their serial order. A partitioned engine's PushBatch may leave its replay,
// and so its callbacks, to a later call (see ingest). Every goroutine an
// engine starts has ended when the call that started it returns.
//
// After Close, every method that returns an error returns ErrClosed and
// changes nothing; the error-free accessors keep answering from the state
// the engine was closed in.
type Engine struct {
	cfg   Config
	clock int64
	// closed is set by Close: from then on every error-returning method
	// returns ErrClosed.
	closed bool
	// parts is the number of key partitions the one query is split into (1
	// unless Open partitioned it): the queries are then its copies, one per
	// partition, and their views together are its answer.
	parts int
	// queries are the live registered queries in registration order.
	queries []*queryUnit
	nextQID int
	// sources and nodes are the live records: sources in install order,
	// nodes children-first (install order), the order maintenance passes run
	// them in. tables are the live table-consuming nodes in metric-id order,
	// the order table updates route through them.
	sources []*liveSource
	nodes   []*liveNode
	tables  []*liveNode
	// srcIndex/nodeIndex map share keys to the live records carrying them (a
	// list: duplicate sub-plans within one query adopt separate records under
	// one key); registration dedups through them. tableIDs numbers tables by
	// first sight for share keys. canonSeq numbers records for share keys,
	// separately from nextOpID so metric ids can stay pre-order.
	srcIndex  map[string][]*liveSource
	nodeIndex map[string][]*liveNode
	tableIDs  []*relation.Table
	canonSeq  int
	// nextOpID numbers nodes for metric labels; never reused.
	nextOpID int
	// lastEager/lastLazy track the maintenance cadence; the older of the two
	// as of the last replay is the watermark, kept in met.watermark.
	lastEager, lastLazy int64
	// comps are the connected components of the live dataflow, heaviest
	// first, re-derived at every registration change (tape.go).
	comps []*component
	// joinWait, on a partitioned engine, is the caller's wall time waiting
	// at the join of a parallel replay for the other partitions (recorded
	// when timed).
	joinWait *obs.Counter

	reg *obs.Registry
	met engineMetrics
	// timed enables wall-clock Push latency sampling (only when the caller
	// supplied a registry, so the default path never calls time.Now).
	timed bool
	// tape records the window stage of the current call: the row runs the
	// engine originates (window-stamped arrivals, count-window evictions, NT
	// window negatives), the runs it lays out on its sources' column batches,
	// and its maintenance passes; operators never retain the run slice, so
	// one tape per engine suffices. work is the state the workers of a
	// parallel replay share. pushRun holds Push's run of one.
	tape    runTape
	work    workers
	pushRun [1]Arrival
	// direct is the flow of the work the caller runs outside the tape:
	// table-update routing.
	direct flow
	// deltaPos/deltaNeg count output deltas applied to the view since the
	// last latency flush. Every entry point (Push, PushBatch, Advance, table
	// updates, Sync) flushes them into the delta-latency histograms with one
	// shared origin→now reading, so per-delta latency costs zero clock reads
	// on top of the entry point's own timing.
	deltaPos, deltaNeg int64
	// sampleDue marks a state sample that waits for the tape's replay.
	sampleDue bool
	// synced is the point the last Sync brought the engine to. A Sync at the
	// same point has nothing to replay, so it runs no pass; Restore clears it.
	synced syncPoint
	// tapeSince, on a timed partitioned engine, is the start of the oldest
	// call whose rows are still on the tape: their deltas' latency origin.
	tapeSince int64
	// Columnar execution state (colpath.go). intern is the engine's string
	// symbol table — one per engine, ids never travel between engines; colOK
	// gates the columnar ingest fast path; colDemoted is the permanent
	// data-driven latch (the first kind-nonconforming arrival sets it, and
	// registration changes never clear it); colArena carves the value slices
	// of rows materialized at the columnar path's boundaries. Each source
	// collects the laid-out runs of a call and each node stages its own
	// output run (record.cols).
	intern     *tuple.Interner
	colOK      bool
	colDemoted bool
	colArena   tuple.ValueArena
	// colRows stages a run's value-slice headers for the column-major layout
	// pass; entries are cleared after each run so arrival buffers are not
	// pinned between pushes.
	colRows [][]tuple.Value
}

// New builds a single-query engine for a physical plan: an empty registry
// engine with the one query registered, read through Queries()[0], and its
// output observed by cfg.OnEmit. Callers that may want shards go
// through Open instead.
func New(phys *plan.Physical, cfg Config) (*Engine, error) {
	e := NewMulti(cfg)
	if _, err := e.RegisterQuery(QuerySpec{Phys: phys, OnEmit: cfg.OnEmit}); err != nil {
		return nil, err
	}
	return e, nil
}

// NewMulti builds an empty multi-query engine: a registry bound to the
// streams and tables its registered queries read. Queries are added with
// RegisterQuery (which canonicalizes their plans into the shared dataflow)
// and removed with UnregisterQuery. Config.OnEmit is ignored here — each
// query carries its own emit observer in its QuerySpec.
func NewMulti(cfg Config) *Engine {
	if cfg.EagerInterval <= 0 {
		cfg.EagerInterval = 1
	}
	if cfg.LazyInterval <= 0 {
		cfg.LazyInterval = 1
	}
	reg := cfg.Metrics
	timed := reg != nil
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:   cfg,
		parts: 1,
		clock: -1, lastEager: -1, lastLazy: -1,
		srcIndex:  make(map[string][]*liveSource),
		nodeIndex: make(map[string][]*liveNode),
		reg:       reg,
		met:       newEngineMetrics(reg, cfg.MetricLabels),
		timed:     timed,
	}
	// A second goroutine reads the clock and the watermark off these gauges
	// (Watermark, Explain); before any arrival both are -1.
	e.met.clock.Set(e.clock)
	e.met.watermark.Set(-1)
	e.intern = tuple.NewInterner()
	e.direct.e = e
	return e
}

// Clock returns the engine's current logical time.
func (e *Engine) Clock() int64 { return e.clock }

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Arrivals:        e.met.arrivals.Value(),
		Emitted:         e.met.emitted.Value(),
		Retracted:       e.met.retracted.Value(),
		WindowNegatives: e.met.windowNegatives.Value(),
		MaxStateTuples:  int(e.met.maxStateTuples.Value()),
	}
}

// Metrics returns the registry backing the engine's counters (the one
// passed in Config.Metrics, or the engine's private registry).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Shards is the number of key partitions computing the answer: 1 unless
// Open partitioned the query.
func (e *Engine) Shards() int { return e.parts }

// Close replays what a partitioned engine's tape still holds and marks the
// engine closed. No goroutine outlives a call, so there is nothing to stop.
// Idempotent: a closed engine returns nil.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	err := e.flush(false)
	e.closed = true
	return err
}

// Streams returns the base-stream ids the registered queries read
// (deduplicated, registration order).
func (e *Engine) Streams() []int {
	seen := map[int]bool{}
	var out []int
	for _, src := range e.sources {
		if !seen[src.stream] {
			seen[src.stream] = true
			out = append(out, src.stream)
		}
	}
	return out
}

// Push admits one base-stream tuple. Timestamps must be non-decreasing
// across all streams (Section 2's arrival model). A single arrival is a run
// of one: it takes the same path as a PushBatch of one element, except that
// it stays in row form — a one-row ColBatch buys nothing. The engine keeps
// vals by reference: windows, join state and views store the slice itself
// for as long as the tuple lives, so the caller must not modify it
// afterwards.
func (e *Engine) Push(streamID int, ts int64, vals ...tuple.Value) error {
	e.pushRun[0] = Arrival{Stream: streamID, TS: ts, Vals: vals}
	err := e.pushRuns(e.pushRun[:], false)
	e.pushRun[0].Vals = nil // do not pin the caller's values between pushes
	return err
}

// observeDeltas charges every output delta applied since the last flush
// with one shared ingest→emit latency reading, at the end of a call that
// started at t0. One reading per entry point (not per delta) keeps the
// instrumented hot path at zero extra clock reads; within one call all
// deltas share the same origin anyway: the call's start, or the start of
// the oldest call whose rows it found still on a partitioned engine's tape.
func (e *Engine) observeDeltas(t0, now int64) {
	origin := t0
	if e.tapeSince > 0 {
		origin = e.tapeSince
	}
	e.tapeSince = 0
	if len(e.tape.events) > 0 {
		e.tapeSince = origin
	}
	lat := now - origin
	if e.deltaPos > 0 {
		e.met.latPos.ObserveN(lat, e.deltaPos)
		e.deltaPos = 0
	}
	if e.deltaNeg > 0 {
		e.met.latNeg.ObserveN(lat, e.deltaNeg)
		e.deltaNeg = 0
	}
	for _, q := range e.queries {
		if q.latPos != nil && q.deltaPos > 0 {
			q.latPos.ObserveN(lat, q.deltaPos)
		}
		if q.latNeg != nil && q.deltaNeg > 0 {
			q.latNeg.ObserveN(lat, q.deltaNeg)
		}
		q.deltaPos, q.deltaNeg = 0, 0
	}
}

// DeltaLatency returns snapshots of the ingest→emit latency distribution
// for positive (insertions) and negative (retractions) output deltas.
// Latency is recorded only when the engine runs with Config.Metrics set.
func (e *Engine) DeltaLatency() (pos, neg obs.LogHistogramSnapshot) {
	return e.met.latPos.Snapshot(), e.met.latNeg.Snapshot()
}

// Violations sums pattern-conformance violations across all operators; a
// conformant run reports 0.
func (e *Engine) Violations() int64 {
	var total int64
	for _, n := range e.nodes {
		_, v := n.violations()
		total += v
	}
	return total
}

// Arrival is one base-stream tuple for batched ingest. Once pushed, its Vals
// belongs to the engine, which keeps the slice by reference (Engine.Push).
type Arrival struct {
	Stream int
	TS     int64
	Vals   []tuple.Value
}

// PushBatch admits a run of arrivals in one call. Semantics are identical to
// calling Push once per element — maintenance still runs at every timestamp
// change inside the batch — but the batch is split into maximal contiguous
// same-(stream, timestamp) runs, each run advances the clock and counts
// arrivals once, and whole runs flow down the plan (DESIGN.md §3.2), in
// columnar form when the plan qualifies (colpath.go): there the selections
// over a source evaluate all of the call's runs at once. Runs never regroup
// tuples across streams or timestamps, so every stateful operator sees
// exactly the input sequence one Push per element would deliver. On an
// engine whose dataflow has several connected components — independent
// registered queries, or the partitions of a partitioned query — the
// components replay the batch's windowed runs concurrently (tape.go): OnEmit
// callbacks in different components may then run at the same time, while
// one component's callbacks never overlap and keep their serial order.
// Per-call overhead
// (wall-clock sampling, state sampling) is likewise paid once per batch:
// MetricPushNanos records one observation covering the whole batch, and state
// is sampled only when a sampling point (first arrival or a 64-arrival
// boundary) fell inside it. Each arrival's Vals is kept by reference, as
// Push keeps its vals, so the caller must not modify it afterwards; the
// batch slice itself may be reused once the call returns.
func (e *Engine) PushBatch(batch []Arrival) error {
	return e.pushRuns(batch, true)
}

// pushRuns is the one ingest entry point behind Push and PushBatch. batched
// marks a PushBatch: its runs may take the columnar chain, and its tape may
// replay on several workers. A refused run ends the call with the runs before
// it applied; their deltas are charged and state is sampled on that path too.
func (e *Engine) pushRuns(batch []Arrival, batched bool) error {
	if e.closed {
		return ErrClosed
	}
	if len(batch) == 0 {
		return nil
	}
	var start int64
	if e.timed {
		start = obs.Nanotime()
	}
	before := e.met.arrivals.Value()
	err := e.ingest(batch, batched)
	// Sampling state size sums every buffer, so do it on the first arrival
	// (short runs would otherwise report a peak of 0) and whenever a
	// 64-arrival boundary is crossed, once the call's rows are replayed: a
	// tape left pending takes the sample with it to the flush that replays it.
	if after := e.met.arrivals.Value(); before == 0 || after>>6 != before>>6 {
		e.sampleDue = true
		if len(e.tape.events) == 0 {
			e.sampleState()
		}
	}
	if e.timed {
		now := obs.Nanotime()
		e.observeDeltas(start, now)
		e.met.pushNanos.Observe(now - start)
	}
	return err
}

// ingest runs the window stage over batch's runs and replays the tape, row
// runs and laid-out runs alike, once the call's runs are staged or the tape
// reaches tapeFlushRows. A refused run stops the window stage, and the call
// goes on as a call of the runs before it would: that prefix is applied, and
// its tape is replayed or left pending by the rule below, so a refused call
// leaves the engine as the call of its prefix would. A PushBatch on a
// partitioned engine leaves a tape shorter than tapeFlushRows for a later
// call to replay, so that its partitions replay thousands of rows per
// parallel flush: starting the workers costs more than replaying one call's
// few hundred rows. Every other call replays what the tape holds before it
// returns.
func (e *Engine) ingest(batch []Arrival, batched bool) error {
	var refused error
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Stream == batch[i].Stream && batch[j].TS == batch[i].TS {
			j++
		}
		if refused = e.ingestRun(batch[i].Stream, batch[i].TS, batch[i:j], batched); refused != nil {
			break
		}
		if e.tape.size() >= tapeFlushRows {
			if err := e.flush(batched); err != nil {
				return err
			}
		}
		i = j
	}
	if batched && e.parts > 1 {
		return refused
	}
	if err := e.flush(batched); err != nil {
		return err
	}
	return refused
}

// ingestRun is the window stage of a maximal same-(stream, timestamp) run:
// validation, clock advance, arrival counting, and the maintenance decision
// happen once for the whole run (the clock does not move inside it), then
// the run is stamped through its window onto the tape: laid out on its
// source's column batch on a columnar PushBatch, in row form otherwise.
func (e *Engine) ingestRun(streamID int, ts int64, run []Arrival, batched bool) error {
	if ts < e.clock {
		return fmt.Errorf("exec: timestamp %d regresses before %d", ts, e.clock)
	}
	matches := 0
	var src *liveSource
	for _, s := range e.sources {
		if s.stream != streamID {
			continue
		}
		matches++
		src = s
		// The window stamps Exp = ts + Size, which must stay below
		// NeverExpires: an overflow would wrap into the past.
		if spec := s.win.Spec(); spec.Type == window.TimeBased && spec.Size > 0 && ts >= tuple.NeverExpires-spec.Size {
			return fmt.Errorf("exec: timestamp %d plus window size %d overflows the expiration time", ts, spec.Size)
		}
	}
	if matches == 0 {
		return fmt.Errorf("exec: no source for stream %d", streamID)
	}
	e.advance(ts)
	e.met.arrivals.Add(int64(len(run)))
	if matches > 1 {
		// Several windows read this stream (self-join shapes, or two queries
		// with incompatible window specs): every arrival reaches each window in
		// turn before the next arrival reaches any, so the run is cut per
		// arrival. Such plans never qualify for the columnar chain.
		for i := range run {
			for _, s := range e.sources {
				if s.stream != streamID {
					continue
				}
				if err := e.admitRows(s, ts, run[i:i+1]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if e.colOK && batched {
		if conforms, err := e.stageCols(src, ts, run); conforms {
			return err
		}
		// The layout refused the run before the window saw it; it is
		// staged in row form below.
	}
	if e.colOK && !valsConform(src.schema, run) {
		// Row-form and columnar runs feed the same operator state, so the
		// first kind-nonconforming arrival on either demotes the engine for
		// good, before it can plant state a kernel cannot lay out.
		e.colOK, e.colDemoted = false, true
	}
	return e.admitRows(src, ts, run)
}

// admitRows stamps a run through src's window onto the tape as one row run:
// each stamped tuple followed by the negatives of whatever a count-based
// window evicted to admit it (time-based windows never evict on arrival).
// A window that refuses an arrival leaves the run off the tape.
func (e *Engine) admitRows(src *liveSource, ts int64, run []Arrival) error {
	lo := len(e.tape.rows)
	for _, a := range run {
		st, evicted, err := src.win.Arrive(tuple.New(ts, a.Vals...))
		if err != nil {
			e.tape.rows = e.tape.rows[:lo]
			return err
		}
		e.tape.rows = append(e.tape.rows, st)
		for _, ev := range evicted {
			e.tape.rows = append(e.tape.rows, ev.Negative(ts))
		}
	}
	e.tape.closeRows(src, lo, ts)
	return nil
}

// Advance moves logical time forward with no arrival, so expirations alone
// can update the answer (the Section 2.3 aggregate example).
func (e *Engine) Advance(ts int64) error {
	if e.closed {
		return ErrClosed
	}
	if ts < e.clock {
		return fmt.Errorf("exec: time %d regresses before %d", ts, e.clock)
	}
	var t0 int64
	if e.timed {
		t0 = obs.Nanotime()
	}
	err := e.maintain(ts)
	if e.timed {
		e.observeDeltas(t0, obs.Nanotime())
	}
	return err
}

// maintain runs the window stage of moving the clock to now and replays it,
// after whatever the tape still holds, on the caller.
func (e *Engine) maintain(now int64) error {
	e.advance(now)
	return e.flush(false)
}

// catchUp replays, on the caller, what a partitioned engine's PushBatch left
// on the tape, for a call that reads or writes the whole state.
func (e *Engine) catchUp() error {
	if e.closed {
		return ErrClosed
	}
	return e.flush(false)
}

// ApplyTableUpdate applies one relation/NRR mutation and routes its
// consequences (for retroactive tables) through the plan.
func (e *Engine) ApplyTableUpdate(tbl *relation.Table, u relation.Update) error {
	if e.closed {
		return ErrClosed
	}
	return e.tableUpdate(tbl, u)
}

// tableUpdate is ApplyTableUpdate's body: it refuses u before anything moves,
// advances the engine to u.TS, applies u to tbl and routes it. The engine
// advances before the table mutates: expirations pending at or before u.TS
// must probe the pre-update rows, or an NT retraction would join against the
// mutated table and mis-retract. The table mutates once, on the caller and
// outside any replay, and every partition's plan reads it.
func (e *Engine) tableUpdate(tbl *relation.Table, u relation.Update) error {
	if u.TS < e.clock {
		return fmt.Errorf("exec: table update at %d regresses before %d", u.TS, e.clock)
	}
	if err := tbl.Check(u); err != nil {
		return err
	}
	var t0 int64
	if e.timed {
		t0 = obs.Nanotime()
	}
	err := e.maintain(u.TS)
	if err == nil {
		err = tbl.Apply(u)
	}
	if err == nil {
		err = e.routeTableUpdate(tbl, u)
	}
	e.settle()
	if e.timed {
		e.observeDeltas(t0, obs.Nanotime())
	}
	return err
}

// routeTableUpdate sends u through every node that reads tbl — each
// partition's, on a partitioned engine — on the caller.
func (e *Engine) routeTableUpdate(tbl *relation.Table, u relation.Update) error {
	e.met.tableUpdates.Inc()
	e.direct.now, e.direct.depth = e.clock, 0
	for _, n := range e.tables {
		top := n.op.(operator.TableOperator)
		if top.Table() != tbl {
			continue
		}
		outs, err := top.ApplyTableUpdate(u, e.clock)
		if err != nil {
			return err
		}
		if err := e.direct.propagateBatch(n, outs); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces all pending expirations (state and view) up to the current
// clock; call it before observing the result. Sync also samples state, so
// the MaxStateTuples high-water mark is current after it returns.
func (e *Engine) Sync() error {
	if e.closed {
		return ErrClosed
	}
	if e.clock < 0 {
		return nil // nothing has happened yet
	}
	var start int64
	if e.timed {
		start = obs.Nanotime()
	}
	if at := e.syncPoint(); at == e.synced {
		// Nothing moved since the last Sync: its passes would find nothing
		// due, but would still count as passes and touches, so reading twice
		// would differ from reading once. The refresh is still observed.
		if e.timed {
			e.met.refreshNanos.Observe(obs.Nanotime() - start)
		}
		return nil
	}
	const forever = int64(-1) << 62
	e.lastEager, e.lastLazy = forever, forever
	err := e.maintain(e.clock)
	e.lastEager, e.lastLazy = e.clock, e.clock
	e.met.watermark.Set(e.clock)
	e.sampleState()
	if err == nil {
		e.synced = e.syncPoint()
	}
	if e.timed {
		now := obs.Nanotime()
		e.observeDeltas(start, now)
		e.met.refreshNanos.Observe(now - start)
	}
	return err
}

// syncPoint is what a Sync depends on: the clock, and how many arrivals,
// table updates and registrations the engine has taken in.
type syncPoint struct {
	clock, arrivals, tableUpdates int64
	registrations                 int
	valid                         bool
}

func (e *Engine) syncPoint() syncPoint {
	return syncPoint{e.clock, e.met.arrivals.Value(), e.met.tableUpdates.Value(), e.nextQID, true}
}

// StateTuples returns the number of tuples currently stored anywhere:
// operator state, materialized windows, and every registered query's view.
// The engine has no in-flight work to wait for, so the error is only ever
// ErrClosed.
func (e *Engine) StateTuples() (int, error) {
	if err := e.catchUp(); err != nil {
		return 0, err
	}
	return e.stateTuples(), nil
}

func (e *Engine) stateTuples() int {
	n := 0
	for _, q := range e.queries {
		n += q.view.Len()
	}
	for _, nd := range e.nodes {
		n += nd.op.StateSize()
	}
	for _, src := range e.sources {
		n += src.win.Len()
	}
	return n
}

// Touched sums tuple visits across operators and every registered query's
// view.
func (e *Engine) Touched() (int64, error) {
	if err := e.catchUp(); err != nil {
		return 0, err
	}
	return e.touched(), nil
}

func (e *Engine) touched() int64 {
	var n int64
	for _, q := range e.queries {
		n += q.view.Touched()
	}
	for _, nd := range e.nodes {
		n += nd.op.Touched()
	}
	return n
}

// advance is the window stage of moving the clock to now: it moves the
// clock, and when a pass is due it expires the NT windows and records the
// pass on the tape for the components to run.
func (e *Engine) advance(now int64) {
	if now > e.clock {
		e.clock = now
		e.met.clock.Set(now)
	}
	now = e.clock

	if now-e.lastEager >= e.cfg.EagerInterval {
		e.expireWindows(now)
		e.lastEager = now
		e.met.eagerPasses.Inc()
		e.tape.pass(evEager, now)
	}
	if now-e.lastLazy >= e.cfg.LazyInterval {
		e.lastLazy = now
		e.met.lazyPasses.Inc()
		e.tape.pass(evLazy, now)
	}
}

// expireWindows is the negative-tuple strategy's share of an eager pass:
// materialized windows announce every expiration with an explicit negative
// tuple, and the negatives of one ExpireUpTo call travel down the plan as one
// run. Expiry policy is per source (a registry can mix NT and UPA queries): a
// source carries the nt flag of the strategy that built it.
func (e *Engine) expireWindows(now int64) {
	for _, src := range e.sources {
		if !src.nt {
			continue
		}
		expired := src.win.ExpireUpTo(now)
		if len(expired) == 0 {
			continue
		}
		e.met.windowNegatives.Add(int64(len(expired)))
		lo := len(e.tape.rows)
		for _, t := range expired {
			e.tape.rows = append(e.tape.rows, t.Negative(now))
		}
		e.tape.closeRows(src, lo, now)
	}
}

// Watermark returns the low-watermark timestamp: every expiration with
// timestamp at or below it is fully reflected in the result view. It is the
// older of the last eager and last lazy maintenance passes replayed, so it
// trails Clock by at most max(EagerInterval, LazyInterval) plus what a
// partitioned engine's tape still holds; Sync raises it to Clock. It reads
// the upa_watermark gauge, so a second goroutine may call it mid-run.
func (e *Engine) Watermark() int64 { return e.met.watermark.Value() }

// sampleState refreshes the per-operator state gauges and raises the
// stored-tuple high-water mark. It runs on the first arrival, every 64th
// arrival, and on Sync (summing every buffer is O(operators), too costly
// per tuple); a sample due while the tape is pending runs after its replay.
func (e *Engine) sampleState() {
	e.sampleDue = false
	e.met.maxStateTuples.SetMax(int64(e.refreshStateGauges()))
}

// refreshStateGauges recomputes the per-operator state and touch gauges
// without raising the high-water mark, and returns the stored-tuple total
// (operator state, windows, views). Restore uses it directly: the
// checkpointed peak is authoritative, and a restore-time sample may fall
// between the original run's sampling points.
func (e *Engine) refreshStateGauges() int {
	n := 0
	for _, q := range e.queries {
		n += q.view.Len()
	}
	for _, nd := range e.nodes {
		size := nd.op.StateSize()
		nd.state.Set(int64(size))
		nd.touched.Set(nd.op.Touched())
		n += size
	}
	for _, src := range e.sources {
		n += src.win.Len()
	}
	return n
}
