package repro

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/exec"
	"repro/internal/tuple"
)

// Registry runs many continuous queries on one shared executor. Queries
// registered with structurally identical sub-plans — same stream, window,
// predicate, strategy, and update-pattern class — share one physical
// operator and its state: each arrival traverses the shared prefix once and
// the resulting deltas fan out to every query's private view. Sharing is
// decided per plan node from immutable canonical descriptors, so it is
// exact: a query's view is always byte-equivalent to what a standalone
// engine compiled from the same query would hold.
//
// All methods must be driven from one goroutine, like Engine. Queries that
// share no operator and no table form independent components of the
// dataflow (Sharing().Components), and PushBatch ingests different
// components on different cores. Compile's Engine is a Registry holding its
// one Query (reachable as the Engine.Registry field); NewRegistry is the
// entry point for multi-query workloads.
type Registry struct {
	e      *exec.Engine
	health *HealthMonitor
	// mu guards the handle list alone (for PlanPage's HTTP goroutine);
	// everything else follows the single-goroutine contract.
	mu      sync.RWMutex
	queries []*Query
	nextID  int
}

// Query is a handle on one registered query — or on Compile's one query,
// partitioned or not: its result view, emission callback, EXPLAIN (with
// sharing annotations), per-operator stats, and an extractable single-query
// checkpoint. After Unregister its reads that return an error fail, naming
// the query.
type Query struct{ h *exec.QueryHandle }

// NewRegistry builds an empty shared executor. Key partitions (WithShards)
// are single-query and rejected here — use Compile.
func NewRegistry(opts ...RegistryOption) (*Registry, error) {
	all := make([]Option, len(opts))
	for i, o := range opts {
		all[i] = o
	}
	cfg := applyOpts(all)
	if cfg.shards > 1 {
		return nil, fmt.Errorf("repro: sharded execution is single-query; compile WithShards through Compile")
	}
	if cfg.health != nil && cfg.execCfg.Metrics == nil {
		cfg.execCfg.Metrics = NewMetricsRegistry()
	}
	r := &Registry{e: exec.NewMulti(cfg.execCfg)}
	if cfg.health != nil {
		r.health = newHealth(r.e, *cfg.health)
	}
	return r, nil
}

// Register compiles the query under the given strategy and adds it to the
// shared dataflow, deduplicating sub-plans against every query already
// registered. The new query starts cold — its windows begin filling from
// the next arrival, and shared state it adopts reflects history it joined
// late. Unnamed queries are auto-named "q0", "q1", ... in registration
// order; names key per-query metric series and EXPLAIN share annotations.
func (r *Registry) Register(q Node, strategy Strategy, opts ...QueryOption) (*Query, error) {
	all := make([]Option, len(opts))
	for i, o := range opts {
		all[i] = o
	}
	qc := applyOpts(all)
	name := qc.name
	if name == "" {
		name = fmt.Sprintf("q%d", r.nextID)
	}
	phys, err := buildPhysical(q, strategy, &qc)
	if err != nil {
		return nil, err
	}
	h, err := r.e.RegisterQuery(exec.QuerySpec{Name: name, Phys: phys, OnEmit: qc.execCfg.OnEmit})
	if err != nil {
		return nil, fmt.Errorf("repro: register: %w", err)
	}
	r.nextID++
	qh := &Query{h: h}
	r.mu.Lock()
	r.queries = append(r.queries, qh)
	r.mu.Unlock()
	return qh, nil
}

// Unregister removes the query from the shared dataflow. Plan nodes it
// shared with surviving queries live on; nodes only it used are retired and
// their state discarded. It returns the number of state tuples freed.
func (r *Registry) Unregister(q *Query) (freed int, err error) {
	freed, err = r.e.UnregisterQuery(q.h)
	if err != nil {
		return 0, fmt.Errorf("repro: unregister: %w", err)
	}
	r.mu.Lock()
	for i, qq := range r.queries {
		if qq == q {
			r.queries = append(r.queries[:i], r.queries[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	return freed, nil
}

// Queries lists the live handles in registration order.
func (r *Registry) Queries() []*Query {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Query, len(r.queries))
	copy(out, r.queries)
	return out
}

// PlanPage returns a /debug/plan page for the exposition endpoint: every
// registered query's EXPLAIN tree as text, with "shared with ..."
// annotations on operators and window sources serving other queries, and
// live counters when ?analyze=1. Like Engine.PlanPage, the live mode reads
// only atomically-updated instruments — safe to scrape while tuples flow.
// Register/Unregister are not synchronized against an in-flight render
// beyond the handle list itself, so a scrape racing a registration may show
// a partially-annotated tree; the next scrape is consistent.
func (r *Registry) PlanPage() MetricsPage {
	return MetricsPage{
		Path:  "/debug/plan",
		Title: "EXPLAIN of every registered query (?analyze=1)",
		Handler: func(w http.ResponseWriter, req *http.Request) {
			analyze := req.URL.Query().Get("analyze") != ""
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, q := range r.Queries() {
				fmt.Fprintf(w, "=== %s ===\n", q.Name())
				_ = q.h.Explain(analyze).WriteText(w)
				fmt.Fprintln(w)
			}
		},
	}
}

// SharingStats quantifies sub-plan sharing: how many plan nodes and window
// sources the registered queries reference versus how many physical ones
// exist, and how many of those serve more than one query.
type SharingStats = exec.SharingStats

// Sharing reports the registry's current sub-plan sharing statistics.
func (r *Registry) Sharing() SharingStats { return r.e.Sharing() }

// Push feeds one stream tuple to every query reading that stream. The
// engine keeps vals by reference: its windows, joins and views may store the
// slice itself for as long as the tuple lives, so the caller must not modify
// it afterwards.
func (r *Registry) Push(streamID int, ts int64, vals ...Value) error {
	return r.e.Push(streamID, ts, vals...)
}

// PushBatch feeds many stream tuples at once — semantically identical to
// pushing each in order, but it amortizes per-call overhead. When the
// registered queries form several independent components (see
// SharingStats.Components) and GOMAXPROCS is above one, the components
// process the batch on up to GOMAXPROCS goroutines, and the call returns
// when all of them are done; the partitions of a partitioned engine
// (WithShards) are such components. A partitioned engine stamps the batch at
// once but may replay it in a later call (the one that fills its tape, or any
// other call): the batch's OnEmit callbacks and view updates can come then,
// and Sync always brings them. OnEmit callbacks of queries in different
// components may then run concurrently; one query's callbacks never
// overlap and arrive in the same order as from a serial engine. A panic in
// a callback is re-raised on the caller with its own value. Each arrival's
// Vals is kept by reference, as Push keeps its vals, so the caller must not
// modify it afterwards; the batch slice itself may be reused once the call
// returns.
func (r *Registry) PushBatch(batch []Arrival) error { return r.e.PushBatch(batch) }

// Advance moves logical time forward without a tuple arrival.
func (r *Registry) Advance(ts int64) error { return r.e.Advance(ts) }

// Sync forces all pending maintenance so every view is Definition-1 exact.
func (r *Registry) Sync() error { return r.e.Sync() }

// Clock returns the registry's logical time.
func (r *Registry) Clock() int64 { return r.e.Clock() }

// Watermark returns the staleness low-watermark: every expiration at or
// below this timestamp is reflected in the result views. It trails Clock by
// at most the larger maintenance interval and reaches Clock after a Sync.
func (r *Registry) Watermark() int64 { return r.e.Watermark() }

// Streams returns the base stream IDs the registered queries read,
// deduplicated, in registration order.
func (r *Registry) Streams() []int { return r.e.Streams() }

// Stats returns executor counters, summed over all queries.
func (r *Registry) Stats() Stats { return r.e.Stats() }

// StateTuples syncs and returns total stored tuples across the shared
// dataflow and every query's view. Shared state is counted once.
func (r *Registry) StateTuples() (int, error) {
	if err := r.e.Sync(); err != nil {
		return 0, err
	}
	return r.e.StateTuples()
}

// Touched syncs and returns cumulative tuple touches across the shared
// dataflow (the paper's Section 6 work measure).
func (r *Registry) Touched() (int64, error) {
	if err := r.e.Sync(); err != nil {
		return 0, err
	}
	return r.e.Touched()
}

// UpdateTable applies one table mutation at its timestamp, routing the
// consequences through every plan that reads the table.
func (r *Registry) UpdateTable(tbl *Table, u TableUpdate) error {
	return r.e.ApplyTableUpdate(tbl, u)
}

// Metrics returns the registry backing the executor's counters (the one
// given WithMetrics, or a private one). A partitioned engine's operator
// series carry their partition as shard="i".
func (r *Registry) Metrics() *MetricsRegistry { return r.e.Metrics() }

// Health returns the health monitor, or nil unless built WithHealth. The
// monitor stays readable after Close (its sampler is stopped, its last state
// is retained).
func (r *Registry) Health() *HealthMonitor { return r.health }

// Checkpoint writes the executor's complete dynamic state: clock,
// maintenance cursors, counters, window contents, per-operator state (shared
// state once), table contents, and every query's view. With one live query,
// partitioned or not, the stream is that query's standalone checkpoint, the
// bytes Query.Checkpoint writes; with several it is the registry layout,
// restorable by a fresh registry that registered the live queries (same
// names, plans, order). After an Unregister that means registering only the
// survivors, in order: the layout follows the live queries, not the history
// that built the registry. Checkpointing never perturbs the run it
// snapshots.
func (r *Registry) Checkpoint(w io.Writer) error { return r.e.Checkpoint(w) }

// Restore rehydrates a freshly built registry, or a freshly compiled engine,
// from a Checkpoint stream written by one built the same way, including
// WithShards: a 4-partition checkpoint reopens only at 4. The checkpoint's
// fingerprint and count are validated first; a disagreement fails with
// *MismatchError before any state is touched. Truncated or damaged input
// fails with an error wrapping ErrCheckpointCorrupt, and leaves the registry
// as it was.
func (r *Registry) Restore(rd io.Reader) error { return r.e.Restore(rd) }

// Close stops the health sampler and closes the shared executor.
// Idempotent; afterwards every method that returns an error — Register,
// Unregister, ingest, Sync, the syncing reads, checkpoints — fails with
// ErrClosed.
func (r *Registry) Close() error {
	r.health.Stop()
	return r.e.Close()
}

// Name returns the query's (possibly auto-assigned) unique name.
func (q *Query) Name() string { return q.h.Name() }

// Schema returns the query's result schema.
func (q *Query) Schema() *Schema { return q.h.Schema() }

// Pattern returns the query's update-pattern class (root edge annotation).
func (q *Query) Pattern() Pattern { return q.h.Pattern() }

// Strategy returns the execution strategy the query was compiled under.
func (q *Query) Strategy() Strategy { return q.h.Strategy() }

// View exposes the query's private result view without syncing, or nil on a
// partitioned engine (each partition owns a private view; use Snapshot or
// Lookup instead).
func (q *Query) View() exec.View { return q.h.View() }

// Snapshot syncs the registry and copies this query's current result rows.
func (q *Query) Snapshot() ([]Tuple, error) { return q.h.Snapshot() }

// ResultCount syncs and returns this query's current result cardinality.
func (q *Query) ResultCount() (int, error) { return q.h.ResultCount() }

// Lookup syncs and returns the query's current result rows whose key columns
// (the view's retraction or group key) match the given values. When the
// chosen view structure does not support keyed access (FIFO and list views,
// and the partitioned view of a plan whose results are never retracted —
// use Snapshot there), it fails with ErrNoKeyedView; an absent key is not an
// error and returns no rows.
func (q *Query) Lookup(vals ...Value) ([]Tuple, error) {
	if err := q.h.Sync(); err != nil {
		return nil, err
	}
	cols := make([]int, len(vals))
	for i := range cols {
		cols[i] = i
	}
	rows, ok := q.h.LookupKey(tuple.Tuple{Vals: vals}.Key(cols))
	if !ok {
		return nil, ErrNoKeyedView
	}
	return rows, nil
}

// OnEmit sets (or, with nil, clears) the callback observing every output
// tuple this query produces — insertions and retractions. During a
// PushBatch, callbacks of queries in other components may run at the same
// time as this one (see Registry.PushBatch); this query's own callbacks
// run one at a time, in output order. Do not call it during ingest.
func (q *Query) OnEmit(fn func(Tuple)) { q.h.SetOnEmit(fn) }

// Explain writes the annotated physical plan as a tree: each operator
// labeled with its output update pattern (as in the paper's Figure 6), its
// physical configuration (key columns, chosen state structures), the chosen
// view structure, and the plan's partition-key status. Operators and window
// sources serving other registered queries carry "shared with ..."
// annotations naming them.
func (q *Query) Explain(w io.Writer) error {
	return q.h.Explain(false).WriteText(w)
}

// ExplainAnalyze syncs and writes the Explain tree with each operator's live
// counters — tuples in/out by polarity, expiration work, state size, wall
// time — summed over the partitions of a partitioned engine. Counters on
// shared operators report the physical work, summed over every query the
// operator serves.
func (q *Query) ExplainAnalyze(w io.Writer) error {
	if err := q.h.Sync(); err != nil {
		return err
	}
	return q.h.Explain(true).WriteText(w)
}

// ExplainDOT writes the Explain tree as a Graphviz digraph; with analyze
// set, node labels carry the live counters (the query is synced first).
func (q *Query) ExplainDOT(w io.Writer, analyze bool) error {
	if analyze {
		if err := q.h.Sync(); err != nil {
			return err
		}
	}
	return q.h.Explain(analyze).WriteDOT(w)
}

// OpStats returns per-operator runtime counters in this query's plan
// pre-order (root first), summed over the partitions of a partitioned
// engine. Rows for shared operators report the canonical node's counters —
// the physical work, summed over every query it serves. Reads are atomic,
// so it is safe while the engine runs; gauge-backed fields (state, touched)
// are as of the last sampling point.
func (q *Query) OpStats() []exec.OpProfile { return q.h.Profile() }

// DeltaLatency snapshots this query's ingest→emit delta-latency
// distributions, split by output polarity: pos covers emitted insertions,
// neg covers retractions. Latency runs from the moment an arrival enters
// Push/PushBatch to the moment its consequences are folded into the view.
// A named query reports its own series, an unnamed one the executor-wide
// distribution. Recording requires WithMetrics; without it both snapshots
// are zero.
func (q *Query) DeltaLatency() (pos, neg LatencySnapshot) { return q.h.DeltaLatency() }

// Checkpoint extracts this query's slice of the registry as a standalone
// checkpoint: the stream restores into an engine compiled by Compile (or
// Open) from the same query, strategy and shard count, carrying exactly the
// windows, operator state, and view this query observes.
func (q *Query) Checkpoint(w io.Writer) error { return q.h.Checkpoint(w) }
