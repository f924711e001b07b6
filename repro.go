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
// layout — or by a registry of other queries. The restore fails before any
// engine state is touched.
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
	// The engine keeps Vals by reference once it is pushed, so the caller
	// must not modify that slice afterwards.
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
// callbacks). Compile and Open accept both kinds — an Engine is a Registry
// plus its one Query, so each kind configures its half — while
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
// Registry.PushBatch); no worker outlives the call. Partitioning is
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

// Engine executes one compiled continuous query. It is a Registry and that
// registry's first Query, on the engine exec.Open built for it — sequential,
// or split into key partitions (WithShards on a plan that admits a routing
// key). Its methods are the Registry's (ingest, Sync, counters, Restore,
// Close) and the Query's (Snapshot, Lookup, Explain, OpStats, Checkpoint),
// plus the shard accessors and the exposition pages. A sequential engine's
// Registry takes further queries, which share sub-plans with this one; a
// partitioned engine's refuses them. All methods must be driven from one
// goroutine.
type Engine struct {
	*Registry
	*Query
	fallback string // why WithShards was refused, "" otherwise
}

// buildPhysical runs the compilation pipeline — annotate, optionally
// optimize, physically plan — shared by Compile and Registry.Register.
func buildPhysical(q Node, strategy Strategy, cfg *compileCfg) (*plan.Physical, error) {
	if q.err != nil {
		return nil, fmt.Errorf("repro: invalid query: %w", q.err)
	}
	root := q.n
	if err := plan.Annotate(root, cfg.stats); err != nil {
		return nil, fmt.Errorf("repro: annotate: %w", err)
	}
	if cfg.optimize {
		best, err := plan.Optimize(root, strategy, cfg.stats)
		if err != nil {
			return nil, fmt.Errorf("repro: optimize: %w", err)
		}
		root = best
	}
	phys, err := plan.Build(root, strategy, cfg.planOpts)
	if err != nil {
		return nil, fmt.Errorf("repro: plan: %w", err)
	}
	return phys, nil
}

// Compile annotates, (optionally) optimizes, physically plans, and
// instantiates the query under the given strategy. Failures are wrapped per
// compilation stage (query validation, annotation, optimization, physical
// planning, executor construction) with the underlying cause preserved for
// errors.Is/As.
//
// The engine is a one-query registry: on a sequential engine,
// eng.Registry.Register adds queries that share sub-plans with this one.
func Compile(q Node, strategy Strategy, opts ...Option) (*Engine, error) {
	cfg := applyOpts(opts)
	if cfg.health != nil && cfg.execCfg.Metrics == nil {
		// Health needs instrumented series; a private registry keeps the
		// monitor self-contained when the caller did not supply one.
		cfg.execCfg.Metrics = NewMetricsRegistry()
	}
	phys, err := buildPhysical(q, strategy, &cfg)
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
	qh := &Query{h: ex.Queries()[0]}
	reg := &Registry{e: ex, queries: []*Query{qh}, nextID: 1}
	if cfg.health != nil {
		reg.health = newHealth(ex, *cfg.health)
	}
	return &Engine{Registry: reg, Query: qh, fallback: reason}, nil
}

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

// Shards returns the number of key partitions executing the query (1 when
// sequential, including after a partitionability fallback).
func (e *Engine) Shards() int { return e.Registry.e.Shards() }

// ShardFallbackReason explains why a WithShards request degraded to
// sequential execution; it is empty when partitioning is active or was never
// requested.
func (e *Engine) ShardFallbackReason() string { return e.fallback }

// Checkpoint is the Query's Checkpoint, which the embedded Registry's would
// otherwise make ambiguous: while the engine holds only its one query both
// write the same bytes, and Restore (the Registry's) reads them.
func (e *Engine) Checkpoint(w io.Writer) error { return e.Query.Checkpoint(w) }

// WriteProfile renders per-operator runtime counters (state size, tuple
// touches, emissions, retractions) as an aligned tree — an EXPLAIN ANALYZE
// for the running continuous query, one tree per partition when
// partitioned.
func (e *Engine) WriteProfile(w io.Writer) error { return e.Query.h.WriteProfile(w) }

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
