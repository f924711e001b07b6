// Package repro is an update-pattern-aware continuous query processor over
// data streams — a from-scratch Go reproduction of Golab & Özsu,
// "Update-Pattern-Aware Modeling and Processing of Continuous Queries"
// (SIGMOD 2005).
//
// A continuous query runs over unbounded streams, usually bounded by sliding
// windows, and maintains a materialized answer that must equal the
// corresponding one-time relational query over the current window contents
// at every moment. The paper's insight is that queries differ in their
// *update patterns* — the order in which results are produced and deleted:
//
//   - monotonic queries never delete results;
//   - weakest non-monotonic (WKS) queries expire results FIFO;
//   - weak non-monotonic (WK) queries expire out of order, but at times
//     known in advance via expiration timestamps;
//   - strict non-monotonic (STR) queries retract results at unpredictable
//     times with explicit negative tuples.
//
// Knowing the pattern of every plan edge lets the processor choose state
// structures (FIFO queues, partitioned expiration calendars, hash tables)
// and operator variants (the δ duplicate-elimination operator) per edge —
// the update-pattern-aware (UPA) strategy — instead of the two classical
// techniques it is benchmarked against: processing an explicit negative
// tuple for every expiration (NT), or discovering expirations by scanning
// insertion-ordered lists (DIRECT).
//
// # Quick start
//
//	schema := repro.MustSchema(
//		repro.Column{Name: "src", Kind: repro.KindInt},
//		repro.Column{Name: "proto", Kind: repro.KindString},
//	)
//	left := repro.Stream(0, schema, repro.TimeWindow(2000)).
//		Where(repro.Col("proto").EqStr("ftp"))
//	right := repro.Stream(1, schema, repro.TimeWindow(2000)).
//		Where(repro.Col("proto").EqStr("ftp"))
//	q := left.JoinOn(right, "src")
//
//	eng, err := repro.Compile(q, repro.UPA)
//	if err != nil { ... }
//	eng.Push(0, 1, repro.Int(7), repro.Str("ftp"))
//	eng.Push(1, 2, repro.Int(7), repro.Str("ftp"))
//	rows, _ := eng.Snapshot() // the join result, Definition-1 exact
//
// The packages under internal implement the full system: the pattern
// classification and propagation rules (internal/core), physical operators
// (internal/operator), pattern-aware state buffers (internal/statebuf), the
// planner, cost model and optimizer (internal/plan), the three execution
// strategies (internal/exec), a Definition-1/2 reference evaluator
// (internal/reference), the synthetic LBL-style traffic generator
// (internal/trace), and the Section 6 experiment harness (internal/bench,
// driven by cmd/upabench).
package repro

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Sentinel errors of the facade's error contract. Test them with errors.Is.
var (
	// ErrClosed is returned, after Close, by every Engine and Registry method
	// that returns an error; the error-free accessors keep answering from the
	// state the engine was closed in.
	ErrClosed = exec.ErrClosed
	// ErrNoKeyedView is returned by Lookup when the chosen view structure
	// does not support keyed access (FIFO/list/partitioned views under
	// DIRECT and most UPA plans — use Snapshot there).
	ErrNoKeyedView = errors.New("repro: view does not support keyed lookup")
	// ErrCheckpointCorrupt is wrapped by Restore errors caused by truncated
	// or damaged checkpoint data.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointVersion is wrapped by Restore errors caused by a
	// checkpoint written under an unsupported format version.
	ErrCheckpointVersion = checkpoint.ErrVersion
)

// MismatchError is the typed error Restore returns when a checkpoint was
// written by a different plan — another query, strategy, schema, or shard
// layout. The restore fails before any engine state is touched.
type MismatchError = checkpoint.MismatchError

// Re-exported data-model types.
type (
	// Value is a typed scalar (int, float, or string).
	Value = tuple.Value
	// Kind is a scalar type tag.
	Kind = tuple.Kind
	// Column is one schema attribute.
	Column = tuple.Column
	// Schema is an ordered list of named, typed columns.
	Schema = tuple.Schema
	// Tuple is one timestamped record; Neg marks retractions.
	Tuple = tuple.Tuple
	// Pattern is an update-pattern class (Monotonic/WKS/WK/STR).
	Pattern = core.Pattern
	// Strategy is an execution technique (NT, Direct, UPA).
	Strategy = plan.Strategy
	// Table is a relation or non-retroactive relation (NRR).
	Table = relation.Table
	// TableUpdate is one table mutation.
	TableUpdate = relation.Update
	// Stats are executor counters.
	Stats = exec.Stats
	// Arrival is one base-stream tuple for batched ingest (PushBatch).
	Arrival = exec.Arrival
)

// Scalar kind tags.
const (
	KindNull   = tuple.KindNull
	KindInt    = tuple.KindInt
	KindFloat  = tuple.KindFloat
	KindString = tuple.KindString
)

// Update-pattern classes (Section 3.1 of the paper).
const (
	Monotonic = core.Monotonic
	Weakest   = core.Weakest
	Weak      = core.Weak
	Strict    = core.Strict
)

// Execution strategies (Section 6).
const (
	// NT is the negative-tuple approach.
	NT = plan.NT
	// Direct is the direct approach.
	Direct = plan.Direct
	// UPA is the update-pattern-aware technique.
	UPA = plan.UPA
)

// Table update kinds.
const (
	// InsertRow adds a row to a table.
	InsertRow = relation.Insert
	// DeleteRow removes a row from a table.
	DeleteRow = relation.Delete
)

// Value constructors.
var (
	// Int makes an integer value.
	Int = tuple.Int
	// Float makes a float value.
	Float = tuple.Float
	// Str makes a string value.
	Str = tuple.String_
)

// NewSchema builds a schema; column names must be unique.
func NewSchema(cols ...Column) (*Schema, error) { return tuple.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(cols ...Column) *Schema { return tuple.MustSchema(cols...) }

// NewRelation builds a retroactive table: updates affect previously arrived
// stream tuples, retracting or extending prior results (strict output).
func NewRelation(name string, schema *Schema) *Table { return relation.NewRelation(name, schema) }

// NewNRR builds a non-retroactive relation (Section 4.1): updates affect
// only stream tuples that arrive later, preserving the input's pattern.
func NewNRR(name string, schema *Schema) *Table { return relation.NewNRR(name, schema) }

// Window specs.

// TimeWindow retains tuples from the last n time units.
func TimeWindow(n int64) window.Spec { return window.Spec{Type: window.TimeBased, Size: n} }

// CountWindow retains the n most recent tuples.
func CountWindow(n int64) window.Spec { return window.Spec{Type: window.CountBased, Size: n} }

// Unbounded is a raw, windowless stream (monotonic queries only).
func Unbounded() window.Spec { return window.Unbounded }

// Option tunes compilation and execution. Every concrete option is either a
// RegistryOption (executor-wide: sharding, metrics, health, maintenance
// cadence) or a QueryOption (per-query: planning choices, naming, emission
// callbacks). Compile and Open accept both kinds — a single-query engine is
// a registry with one query, so the distinction collapses there — while
// NewRegistry takes only RegistryOptions and Registry.Register only
// QueryOptions, so misfiled options are compile errors rather than silent
// no-ops.
type Option interface {
	apply(*compileCfg)
}

// RegistryOption configures the shared executor that all queries registered
// on one Registry run on: shard/worker topology, observability wiring
// (metrics, health), and the maintenance cadence every shared plan
// node follows. Accepted by NewRegistry, Compile, and Open.
type RegistryOption interface {
	Option
	registryOption()
}

// QueryOption configures one registered query: its planner settings, state
// structure choices, estimation statistics, name, and emission callback.
// Accepted by Registry.Register, Compile, and Open.
type QueryOption interface {
	Option
	queryOption()
}

// registryOption and queryOption are the concrete Option kinds; funcs keep
// the existing constructor bodies unchanged.
type registryOption func(*compileCfg)

func (o registryOption) apply(c *compileCfg) { o(c) }
func (o registryOption) registryOption()     {}

type queryOption func(*compileCfg)

func (o queryOption) apply(c *compileCfg) { o(c) }
func (o queryOption) queryOption()        {}

type compileCfg struct {
	planOpts plan.Options
	execCfg  exec.Config
	optimize bool
	stats    plan.Stats
	shards   int
	health   *HealthConfig
	name     string
}

// applyOpts runs options over a fresh config.
func applyOpts(opts []Option) compileCfg {
	cfg := compileCfg{stats: plan.DefaultStats()}
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

// WithPartitions sets the partition count of partitioned state buffers
// (default 10).
func WithPartitions(n int) QueryOption {
	return queryOption(func(c *compileCfg) { c.planOpts.Partitions = n })
}

// WithSTRPartitioned forces the partitioned storage for strict results.
func WithSTRPartitioned() QueryOption {
	return queryOption(func(c *compileCfg) { c.planOpts.STR = plan.STRPartitioned })
}

// WithSTRHash forces the hash/negative-tuple storage for strict results.
func WithSTRHash() QueryOption {
	return queryOption(func(c *compileCfg) { c.planOpts.STR = plan.STRHash })
}

// WithLazyInterval sets the lazy maintenance interval in time units.
// Registry-wide: shared plan nodes are maintained on one cadence.
func WithLazyInterval(n int64) RegistryOption {
	return registryOption(func(c *compileCfg) { c.execCfg.LazyInterval = n })
}

// WithEagerInterval sets the eager expiration interval in time units.
// Registry-wide: shared plan nodes are maintained on one cadence.
func WithEagerInterval(n int64) RegistryOption {
	return registryOption(func(c *compileCfg) { c.execCfg.EagerInterval = n })
}

// WithOnEmit observes every output-stream tuple (insertions and
// retractions) this query produces. Per-query: on a shared plan each query
// sees its own output stream, not its neighbors'. One query's callbacks
// never overlap and arrive in output order, but callbacks may run
// concurrently during a PushBatch: those of different partitions of a
// partitioned engine (WithShards), and those of queries in independent
// components of a Registry (see Registry.PushBatch). A callback that shares
// state with another callback must synchronize.
func WithOnEmit(fn func(Tuple)) QueryOption {
	return queryOption(func(c *compileCfg) { c.execCfg.OnEmit = fn })
}

// WithOptimizer runs the update-pattern-aware rewrite optimizer
// (Section 5.4.2) before physical planning.
func WithOptimizer() QueryOption {
	return queryOption(func(c *compileCfg) { c.optimize = true })
}

// WithQueryName names the query for handles, EXPLAIN share annotations
// ("shared with q2"), and per-query metric series ({query: name} labels).
// Names must be unique within a registry. Registry.Register auto-names
// unnamed queries "q0", "q1", ... in registration order.
func WithQueryName(name string) QueryOption {
	return queryOption(func(c *compileCfg) { c.name = name })
}

// WithShards splits the query into n key partitions when the plan admits a
// routing key (see plan.PartitionKey): one engine stamps every arrival once,
// and PushBatch replays the partitions on up to n cores, a few thousand
// stamped rows at a time. Otherwise Compile returns the ordinary sequential
// engine and ShardFallbackReason explains why. During a PushBatch the
// WithOnEmit callback is called from the replay workers, possibly
// concurrently, and a batch's callbacks may come in a later call (see
// Engine.PushBatch); no worker outlives the call. Partitioning is
// single-query: NewRegistry rejects it.
func WithShards(n int) RegistryOption {
	return registryOption(func(c *compileCfg) { c.shards = n })
}

// WithStreamStats supplies estimation statistics for one stream (arrival
// rate and per-column distinct counts), improving cost-based decisions.
func WithStreamStats(streamID int, rate float64, distinct map[int]float64) QueryOption {
	return queryOption(func(c *compileCfg) {
		if c.stats.Streams == nil {
			c.stats.Streams = map[int]plan.StreamStats{}
		}
		c.stats.Streams[streamID] = plan.StreamStats{Rate: rate, Distinct: distinct}
	})
}

// Engine executes one compiled continuous query on the engine exec.Open
// built for it: sequential, or split into key partitions (WithShards on a
// plan that admits a routing key). A sequential engine is a one-query
// Registry — the same shared executor that serves multi-query workloads —
// reachable through the Registry and Query accessors. All methods must be
// driven from one goroutine.
type Engine struct {
	ex       *exec.Engine
	reg      *Registry // backing one-query registry; nil when partitioned
	q        *Query    // its single query handle
	phys     *plan.Physical
	root     *plan.Node
	health   *HealthMonitor
	fallback string // why WithShards was refused, "" otherwise
}

// buildPhysical runs the compilation pipeline — annotate, optionally
// optimize, physically plan — shared by Compile and Registry.Register.
func buildPhysical(q Node, strategy Strategy, cfg *compileCfg) (*plan.Node, *plan.Physical, error) {
	if q.err != nil {
		return nil, nil, fmt.Errorf("repro: invalid query: %w", q.err)
	}
	root := q.n
	if err := plan.Annotate(root, cfg.stats); err != nil {
		return nil, nil, fmt.Errorf("repro: annotate: %w", err)
	}
	if cfg.optimize {
		best, err := plan.Optimize(root, strategy, cfg.stats)
		if err != nil {
			return nil, nil, fmt.Errorf("repro: optimize: %w", err)
		}
		root = best
	}
	phys, err := plan.Build(root, strategy, cfg.planOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: plan: %w", err)
	}
	return root, phys, nil
}

// Compile annotates, (optionally) optimizes, physically plans, and
// instantiates the query under the given strategy. Failures are wrapped per
// compilation stage (query validation, annotation, optimization, physical
// planning, executor construction) with the underlying cause preserved for
// errors.Is/As.
//
// A non-sharded Compile is a one-query registry: the engine's Registry()
// can register further queries that share sub-plans with this one.
func Compile(q Node, strategy Strategy, opts ...Option) (*Engine, error) {
	cfg := applyOpts(opts)
	if cfg.health != nil && cfg.execCfg.Metrics == nil {
		// Health needs instrumented series; a private registry keeps the
		// monitor self-contained when the caller did not supply one.
		cfg.execCfg.Metrics = NewMetricsRegistry()
	}
	root, phys, err := buildPhysical(q, strategy, &cfg)
	if err != nil {
		return nil, err
	}
	// The query stays unnamed unless WithQueryName asks, so a plain engine's
	// metric series match a standalone engine's exactly.
	ex, reason, err := exec.Open(exec.QuerySpec{
		Name: cfg.name, Phys: phys, OnEmit: cfg.execCfg.OnEmit,
	}, cfg.execCfg, cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("repro: executor: %w", err)
	}
	out := &Engine{ex: ex, phys: phys, root: root, fallback: reason}
	// Only an unpartitioned engine takes further registrations: it is the
	// backing registry with this as its only query.
	if ex.Shards() == 1 {
		out.reg = &Registry{e: ex, cfg: cfg, nextID: 1}
		out.q = &Query{r: out.reg, h: ex.Queries()[0], root: root, phys: phys}
		out.reg.queries = []*Query{out.q}
	}
	if cfg.health != nil {
		out.health = newHealth(ex, *cfg.health)
		if out.reg != nil {
			out.reg.health = out.health
		}
	}
	return out, nil
}

// Registry returns the one-query registry backing a sequential engine —
// register further queries on it to share this query's sub-plans — or nil
// on a partitioned engine (partitioning is single-query). An engine whose
// WithShards request fell back is sequential and has one.
func (e *Engine) Registry() *Registry { return e.reg }

// Query returns the engine's query handle on its backing registry, or nil
// on a partitioned engine.
func (e *Engine) Query() *Query { return e.q }

// Open compiles the query and restores the engine's state from a checkpoint
// written by an engine compiled from the same query, strategy, and options
// (including WithShards — a 4-partition checkpoint reopens only at 4).
// On a restore failure the freshly compiled engine is closed and the error
// (a *MismatchError for plan/shard-layout disagreements) is returned.
func Open(r io.Reader, q Node, strategy Strategy, opts ...Option) (*Engine, error) {
	eng, err := Compile(q, strategy, opts...)
	if err != nil {
		return nil, err
	}
	if err := eng.Restore(r); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// Push feeds one stream tuple at its timestamp.
func (e *Engine) Push(streamID int, ts int64, vals ...Value) error {
	return e.ex.Push(streamID, ts, vals...)
}

// PushBatch feeds many stream tuples at once — semantically identical to
// pushing each in order, but amortizes per-call overhead, and it is the call
// that replays a partitioned engine's partitions on several cores. A
// partitioned engine stamps the batch at once but may replay it in a later
// call (the one that fills its tape, or any other call): the batch's OnEmit
// callbacks and view updates can come then, and Sync always brings them.
func (e *Engine) PushBatch(batch []Arrival) error { return e.ex.PushBatch(batch) }

// Advance moves logical time forward without a tuple arrival.
func (e *Engine) Advance(ts int64) error { return e.ex.Advance(ts) }

// Sync forces all pending maintenance so the view is Definition-1 exact.
func (e *Engine) Sync() error { return e.ex.Sync() }

// synced is the sync-then-read path of the accessors whose executor method
// reads without syncing (StateTuples, Touched, Lookup): force pending
// maintenance, then evaluate read against the quiescent engine.
func synced[T any](e *Engine, read func() (T, error)) (T, error) {
	if err := e.ex.Sync(); err != nil {
		var zero T
		return zero, err
	}
	return read()
}

// Snapshot syncs and copies the current result rows.
func (e *Engine) Snapshot() ([]Tuple, error) { return e.ex.Snapshot() }

// ResultCount syncs and returns the current result cardinality.
func (e *Engine) ResultCount() (int, error) { return e.ex.ResultCount() }

// Stats returns executor counters.
func (e *Engine) Stats() Stats { return e.ex.Stats() }

// Clock returns the engine's logical time.
func (e *Engine) Clock() int64 { return e.ex.Clock() }

// Streams returns the base stream IDs the query reads.
func (e *Engine) Streams() []int { return e.ex.Streams() }

// StateTuples syncs and returns the total stored tuples (state + view),
// over every partition when partitioned.
func (e *Engine) StateTuples() (int, error) { return synced(e, e.ex.StateTuples) }

// Touched syncs and returns cumulative tuple touches — the paper's
// Section 6 work measure — over every partition when partitioned.
func (e *Engine) Touched() (int64, error) { return synced(e, e.ex.Touched) }

// View exposes the sequential engine's result view, or nil on a partitioned
// engine (each partition owns a private view; use Snapshot or Lookup
// instead).
func (e *Engine) View() exec.View {
	if e.q == nil {
		return nil
	}
	return e.q.View()
}

// Shards returns the number of key partitions executing the query (1 when
// sequential, including after a partitionability fallback).
func (e *Engine) Shards() int { return e.ex.Shards() }

// ShardFallbackReason explains why a WithShards request degraded to
// sequential execution; it is empty when partitioning is active or was never
// requested.
func (e *Engine) ShardFallbackReason() string { return e.fallback }

// Close stops the health sampler and closes the engine (and the Registry it
// backs). It is idempotent, and after it returns every method that returns
// an error fails with ErrClosed.
func (e *Engine) Close() error {
	e.health.Stop()
	return e.ex.Close()
}

// Checkpoint writes the engine's complete dynamic state — clock, maintenance
// cursors, counters, window contents, per-operator state, table contents,
// and the result view, per partition when partitioned — as a versioned
// binary snapshot. Checkpointing never perturbs the run it snapshots.
func (e *Engine) Checkpoint(w io.Writer) error { return e.ex.Checkpoint(w) }

// Restore rehydrates a freshly compiled engine from a checkpoint written by
// an engine compiled from the same query, strategy, options, and partition
// count. The checkpoint's plan fingerprint and partition count are validated
// first: a disagreement fails with *MismatchError before any engine state
// is touched. Truncated or damaged input fails with an error wrapping
// ErrCheckpointCorrupt.
func (e *Engine) Restore(r io.Reader) error { return e.ex.Restore(r) }

// Schema returns the result schema.
func (e *Engine) Schema() *Schema { return e.phys.Schema }

// Pattern returns the query's update-pattern class — the root edge
// annotation of Section 5.2.
func (e *Engine) Pattern() Pattern { return e.phys.Pattern }

// Explain writes the annotated physical plan as a tree: each operator
// labeled with its output update pattern (as in the paper's Figure 6), its
// physical configuration (key columns, chosen state structures), the chosen
// view structure, and the plan's partition-key status.
func (e *Engine) Explain(w io.Writer) error {
	return e.ex.Explain(false).WriteText(w)
}

// ExplainAnalyze syncs the engine and writes the Explain tree with each
// operator's live counters — tuples in/out by polarity, expiration work,
// state size, wall time — summed over the partitions of a partitioned
// engine.
func (e *Engine) ExplainAnalyze(w io.Writer) error {
	if err := e.Sync(); err != nil {
		return err
	}
	return e.ex.Explain(true).WriteText(w)
}

// ExplainDOT writes the Explain tree as a Graphviz digraph; with analyze
// set, node labels carry the live counters (the engine is synced first).
func (e *Engine) ExplainDOT(w io.Writer, analyze bool) error {
	if analyze {
		if err := e.Sync(); err != nil {
			return err
		}
	}
	return e.ex.Explain(analyze).WriteDOT(w)
}

// OpStats returns per-operator runtime counters in plan pre-order (root
// first), summed over the partitions of a partitioned engine. Reads are atomic, so it
// is safe while the engine runs; gauge-backed fields (state, touched) are as
// of the last sampling point.
func (e *Engine) OpStats() []exec.OpProfile { return e.ex.Profile() }

// Watermark returns the staleness low-watermark: every expiration at or
// below this timestamp is reflected in the result view. It trails Clock by
// at most the larger maintenance interval and reaches Clock after a Sync.
func (e *Engine) Watermark() int64 { return e.ex.Watermark() }

// Lookup syncs and returns the current result rows whose key columns (the
// view's retraction or group key) match the given values. When the chosen
// view structure does not support keyed access (FIFO and list views, and the
// partitioned view of a plan whose results are never retracted — use
// Snapshot there), it fails with ErrNoKeyedView; an absent key is not an
// error and returns no rows.
func (e *Engine) Lookup(vals ...Value) ([]Tuple, error) {
	return synced(e, func() ([]Tuple, error) {
		cols := make([]int, len(vals))
		for i := range cols {
			cols[i] = i
		}
		rows, ok := e.ex.LookupKey(tuple.Tuple{Vals: vals}.Key(cols))
		if !ok {
			return nil, ErrNoKeyedView
		}
		return rows, nil
	})
}

// UpdateTable applies one table mutation at its timestamp, routing the
// consequences (for retroactive tables) through the plan.
func (e *Engine) UpdateTable(tbl *Table, u TableUpdate) error {
	return e.ex.ApplyTableUpdate(tbl, u)
}

// WriteProfile renders per-operator runtime counters (state size, tuple
// touches, emissions, retractions) as an aligned tree — an EXPLAIN ANALYZE
// for the running continuous query, one tree per partition when
// partitioned.
func (e *Engine) WriteProfile(w io.Writer) error { return e.ex.WriteProfile(w) }

// Trace re-exports: the synthetic LBL-style traffic workload of Section 6.1.
type (
	// TraceConfig parameterizes the synthetic traffic generator.
	TraceConfig = trace.Config
	// TraceRecord is one generated connection record.
	TraceRecord = trace.Record
)

// TraceSchema returns the connection-record schema: one shared, immutable
// value, the same on every call.
func TraceSchema() *Schema { return trace.Schema() }

// GenerateTrace materializes a deterministic synthetic trace.
func GenerateTrace(cfg TraceConfig) []TraceRecord { return trace.Generate(cfg) }
