package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/exec"
)

// legCfg is how one engine instance of a workload is configured.
type legCfg struct {
	metrics bool // WithMetrics: wall-clock series and per-operator ProcNanos
	shards  int
}

// ingester is the part of *repro.Engine and *repro.Registry a pass drives.
type ingester interface {
	Push(streamID int, ts int64, vals ...repro.Value) error
	PushBatch(batch []repro.Arrival) error
	Sync() error
	Close() error
}

// subscriber is the OnEmit consumer attached to every query: it counts the
// output stream by polarity. Sharded engines call it from worker
// goroutines, hence the atomics.
type subscriber struct {
	pos, neg atomic.Int64
	// Traced legs only: the callbacks' own wall time and count.
	nanos, calls atomic.Int64
	// Delta capture for the view-fold replay, bounded per query.
	mu       sync.Mutex
	capture  bool
	captured [][]repro.Tuple
}

// captureCap bounds the deltas kept per workload for the view-fold replay.
const captureCap = 1 << 17

func (s *subscriber) count(t repro.Tuple) {
	if t.Neg {
		s.neg.Add(1)
	} else {
		s.pos.Add(1)
	}
}

// timed is the traced legs' callback: count, optionally capture, and charge
// the callback's own time so it can be subtracted from the ingest span.
func (s *subscriber) timed(q int) func(repro.Tuple) {
	return func(t repro.Tuple) {
		t0 := time.Now()
		s.count(t)
		if s.capture {
			s.mu.Lock()
			if len(s.captured[q]) < captureCap/len(s.captured) {
				s.captured[q] = append(s.captured[q], t.Clone())
			}
			s.mu.Unlock()
		}
		s.calls.Add(1)
		s.nanos.Add(int64(time.Since(t0)))
	}
}

// system is one built engine of a workload plus the handles the passes and
// checks read.
type system struct {
	w       workload
	cfg     legCfg
	ing     ingester
	eng     *repro.Engine   // single-query workloads
	reg     *repro.Registry // registry workload
	queries []*repro.Query  // registry workload, in w.queries order
	metrics *repro.MetricsRegistry
	sub     *subscriber
	exact   bool // w.repeats(): emitted and retracted must repeat between passes
}

// build compiles the workload's queries through the public facade. traced
// selects the self-timing OnEmit callback.
func build(w workload, cfg legCfg, traced bool) (*system, error) {
	s := &system{w: w, cfg: cfg, exact: w.repeats(),
		sub: &subscriber{captured: make([][]repro.Tuple, len(w.queries))}}
	onEmit := func(q int) func(repro.Tuple) {
		if traced {
			return s.sub.timed(q)
		}
		return s.sub.count
	}
	ropts := []repro.RegistryOption{repro.WithLazyInterval(w.lazy)}
	if cfg.metrics {
		s.metrics = repro.NewMetricsRegistry()
		ropts = append(ropts, repro.WithMetrics(s.metrics))
	}
	if w.registry {
		reg, err := repro.NewRegistry(ropts...)
		if err != nil {
			return nil, err
		}
		for i, q := range w.queries {
			n, err := q.facadeNode(w.links)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			h, err := reg.Register(n, q.strategy, repro.WithQueryName(q.name))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			// Register drops a WithOnEmit option (it overwrites the query's
			// executor config with the registry's), so subscribe on the handle.
			h.OnEmit(onEmit(i))
			s.queries = append(s.queries, h)
		}
		s.reg, s.ing = reg, reg
		return s, nil
	}
	q := w.queries[0]
	n, err := q.facadeNode(w.links)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.name, err)
	}
	opts := []repro.Option{repro.WithOnEmit(onEmit(0))}
	for _, o := range ropts {
		opts = append(opts, o)
	}
	if cfg.shards > 1 {
		opts = append(opts, repro.WithShards(cfg.shards))
	}
	eng, err := repro.Compile(n, q.strategy, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.name, err)
	}
	if cfg.shards > 1 && eng.Shards() != cfg.shards {
		eng.Close()
		return nil, fmt.Errorf("%s: wanted %d shards, got %d (%s)", q.name, cfg.shards, eng.Shards(), eng.ShardFallbackReason())
	}
	s.eng, s.ing = eng, eng
	return s, nil
}

// snapshots returns every query's current result rows, in w.queries order.
func (s *system) snapshots() ([][]repro.Tuple, error) {
	if s.reg == nil {
		rows, err := s.eng.Snapshot()
		return [][]repro.Tuple{rows}, err
	}
	out := make([][]repro.Tuple, len(s.queries))
	for i, q := range s.queries {
		rows, err := q.Snapshot()
		if err != nil {
			return nil, err
		}
		out[i] = rows
	}
	return out, nil
}

// resultCount sums the queries' result cardinalities.
func (s *system) resultCount() (int, error) {
	if s.reg == nil {
		return s.eng.ResultCount()
	}
	total := 0
	for _, q := range s.queries {
		n, err := q.ResultCount()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// opStats returns every query's per-operator counters, in w.queries order.
func (s *system) opStats() [][]exec.OpProfile {
	if s.reg == nil {
		return [][]exec.OpProfile{s.eng.OpStats()}
	}
	out := make([][]exec.OpProfile, len(s.queries))
	for i, q := range s.queries {
		out[i] = q.OpStats()
	}
	return out
}

// violations sums the update-pattern conformance violations of every
// operator; a correct run has none.
func (s *system) violations() int64 {
	var total int64
	for _, ops := range s.opStats() {
		for _, p := range ops {
			total += p.Violations()
		}
	}
	return total
}

// columnar reports whether the measured engine is still on the columnar
// path. The facade has no accessor for exec.Engine.Columnar, so the state is
// read the way a restart would: checkpoint the engine and restore it into a
// twin built from the same plan at the exec layer. Restore keeps the twin
// columnar only if the checkpointed engine was (a demotion is persisted),
// and it fails outright if the facade-built plan is not the twin's plan.
func (s *system) columnar() (bool, error) {
	var buf bytes.Buffer
	if err := s.eng.Checkpoint(&buf); err != nil {
		return false, err
	}
	phys, err := s.w.queries[0].physical(s.w.links)
	if err != nil {
		return false, err
	}
	twin, err := exec.New(phys, exec.Config{})
	if err != nil {
		return false, err
	}
	if !twin.Columnar() {
		return false, nil
	}
	if err := twin.Restore(&buf); err != nil {
		return false, fmt.Errorf("columnar twin: %w", err)
	}
	return twin.Columnar(), nil
}

// countingWriter is the checkpoint sink: it keeps the size, not the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
